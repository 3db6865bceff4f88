"""Linear codes over R_k, quasitwisted constructions, and their binary Gray images.

Codes are built on flat words: a ring vector packed into one int, 2^k bits
per coordinate.  Multiplication by a monomial u_A acts alike on every
coordinate, so on a flat word v it is (v & M_A) << A, where M_A keeps the
bits u_B with B & A == 0 (then u_A u_B = u_(A+B) and no bit crosses into
the next coordinate).  The R_k-span of generator rows equals the F2-span
of all u_A * row, so row-reducing those gives exact size and enumeration
whether or not the module is free.  Binary images apply the Gray map to
that F2 basis and row-reduce again.  For k <= K_MAX a coordinate has 2, 4
or 8 bits, so every byte of a flat word holds whole coordinates, and a row
is mapped byte by byte through a 256-entry table built once per k.

Homogeneous weights are taken on the ring side, independently of the Gray
map, through the generating character chi: w(x) = #{u in U : chi(u*x) = -1}
(ring.character_table).  That count is the popcount of an F2-linear image
of x, so the basis rows are mapped once, through a byte table of the same
kind, and the span of the mapped rows is weighed by int.bit_count like a
binary image.

Quasitwisted codewords use the interleaved coordinate layout: the vector
position of coefficient i of block b is i*ell + b.  Under this layout the
global twisted shift T_lambda^ell acts as per-block multiplication by x,
so codes built from twistulant generators are literally T_lambda^ell
invariant and their binary images are literally (image_len * ell)-QC when
lambda = 1.  qt_generator_matrix returns the block-concatenated display
form of the same rows, which differs from the span rows by the
perfect-shuffle column permutation only.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from itertools import islice
from typing import Iterable, Iterator, Mapping, Sequence

from rkcodes.gf2 import F2Span, rotate_bits, span_counts, span_iter, span_min_weight
from rkcodes.graymap import GrayMap
from rkcodes.polyqt import (
    Polynomial,
    RingVec,
    divides_modulus,
    format_generator,
    grade_scaled,
    parse_element,
    parse_generator,
    poly_degree,
)
from rkcodes.ring import (
    K_MAX,
    RingElement,
    character_table,
    format_element,
    hom_weight_vec,
    one,
    unit_count,
)

DEFAULT_BUDGET_LOG2 = 24


class BudgetError(RuntimeError):
    """An enumeration would exceed the configured 2^budget codeword cap."""


def _check_budget(rank: int, budget: int) -> None:
    if rank > budget:
        raise BudgetError(f"span has 2^{rank} words, over the 2^{budget} budget")


def flatten_vec(vec: Sequence[RingElement]) -> int:
    """Pack a ring vector into an int, 2^k bits per coordinate."""
    bits = 1 << vec[0].k
    out = 0
    for i, e in enumerate(vec):
        out |= e.coeffs << (i * bits)
    return out


def unflatten_vec(flat: int, k: int, n: int) -> RingVec:
    bits = 1 << k
    mask = (1 << bits) - 1
    return tuple(RingElement(k, (flat >> (i * bits)) & mask) for i in range(n))


@dataclass(frozen=True)
class ModuleSpan:
    """Canonical F2 basis of a code's flattened codewords."""

    k: int
    n: int
    basis: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.basis)

    def codewords(self, budget: int = DEFAULT_BUDGET_LOG2) -> Iterator[RingVec]:
        _check_budget(self.rank, budget)
        for flat in span_iter(self.basis):
            yield unflatten_vec(flat, self.k, self.n)


@lru_cache(maxsize=256)
def _monomial_masks(k: int, n: int) -> tuple[tuple[int, int], ...]:
    """(A, M_A) for every monomial u_A, with M_A repeated over n coordinates."""
    w = 1 << k
    repunit = ((1 << n * w) - 1) // ((1 << w) - 1)  # bit 0 of every coordinate
    return tuple((a, sum(1 << b for b in range(w) if not a & b) * repunit) for a in range(w))


def _twisted_shifts(flat: int, k: int, n: int, lam: int, steps: int) -> Iterator[int]:
    """flat and its successive T_lambda^steps images, for a flat length-n word over R_k.

    The top steps coordinates wrap around to the bottom times lambda
    (coefficient word lam), so steps must lie in 1..n.
    """
    shift = steps << k
    wrap = (n - steps) << k
    full = (1 << (n << k)) - 1
    twist = [(a, mask) for a, mask in _monomial_masks(k, steps) if lam >> a & 1]
    while True:
        yield flat
        top = flat >> wrap
        flat = (flat << shift) & full
        for a, mask in twist:
            flat ^= (top & mask) << a


def _span_of_flat(k: int, n: int, rows: Iterable[int]) -> ModuleSpan:
    """F2 basis of the R_k-module generated by flat rows: all u_A * row."""
    masks = _monomial_masks(k, n)
    span = F2Span()
    for flat in rows:
        for a, mask in masks:
            span.add((flat & mask) << a)
    return ModuleSpan(k, n, span.basis())


def module_span(rows: Sequence[Sequence[RingElement]]) -> ModuleSpan:
    """F2 basis of the R_k-module generated by the rows."""
    if not rows:
        raise ValueError("need at least one generator row")
    k, n = rows[0][0].k, len(rows[0])
    if any(len(row) != n for row in rows):
        raise ValueError("generator rows have mixed lengths")
    if any(e.k != k for row in rows for e in row):
        raise ValueError("mixed ring parameters")
    return _span_of_flat(k, n, map(flatten_vec, rows))


@dataclass(frozen=True)
class QTCode:
    """A (lambda, ell)-quasitwisted code of length ell*m given by generator tuples."""

    lam: RingElement
    ell: int
    m: int
    generators: tuple[tuple[RingVec, ...], ...]

    def __post_init__(self) -> None:
        if not self.lam.is_unit:
            raise ValueError("twist lambda must be a unit")
        if self.ell < 1 or self.m < 1:
            raise ValueError("index and coindex must be positive")
        if not self.generators:
            raise ValueError("need at least one generator tuple")
        for gen in self.generators:
            if len(gen) != self.ell:
                raise ValueError(f"generator has {len(gen)} blocks, expected ell={self.ell}")
            for block in gen:
                if len(block) != self.m:
                    raise ValueError(f"block length {len(block)} != coindex m={self.m}")
                if any(e.k != self.lam.k for e in block):
                    raise ValueError("generator entries from the wrong ring")

    @property
    def k(self) -> int:
        return self.lam.k

    @property
    def n(self) -> int:
        return self.ell * self.m

    @classmethod
    def from_strings(
        cls,
        k: int,
        generators: Sequence[str],
        *,
        lam: str | RingElement = "1",
        ell: int | None = None,
        m: int | None = None,
        notation: str | None = None,
    ) -> "QTCode":
        lam_elem = lam if isinstance(lam, RingElement) else parse_element(lam, k, notation)
        gens = tuple(parse_generator(g, k, notation) for g in generators)
        ell_seen = len(gens[0])
        m_seen = len(gens[0][0])
        if ell is not None and ell != ell_seen:
            raise ValueError(f"generator has {ell_seen} blocks but ell={ell} was given")
        if m is not None and m != m_seen:
            raise ValueError(f"blocks have length {m_seen} but m={m} was given")
        return cls(lam_elem, ell_seen, m_seen, gens)

    def generator_strings(self, notation: str | None = None) -> list[str]:
        return [format_generator(gen, notation) for gen in self.generators]


def interleave(blocks: Sequence[Sequence[RingElement]]) -> RingVec:
    """Blockwise tuple -> codeword layout: position i*ell + b holds block b, coeff i."""
    ell = len(blocks)
    return tuple(blocks[j % ell][j // ell] for j in range(ell * len(blocks[0])))


def deinterleave(vec: Sequence[RingElement], ell: int) -> tuple[RingVec, ...]:
    m = len(vec) // ell
    return tuple(tuple(vec[i * ell + b] for i in range(m)) for b in range(ell))


def generator_rows(k: int, lam: int, ell: int, m: int, words: Sequence[int]) -> list[int]:
    """The m flat interleaved rows x^i * g, i.e. T_lambda^(i*ell) g, of one generator tuple g.

    words[b*m + i] is the coefficient word of coefficient i of block b, and
    lam the coefficient word of lambda.
    """
    flat = sum(c << ((p % m * ell + p // m) << k) for p, c in enumerate(words))
    return list(islice(_twisted_shifts(flat, k, ell * m, lam, ell), m))


def _flat_rows(code: QTCode) -> list[int]:
    """generator_rows of every generator tuple of the code."""
    rows = []
    for gen in code.generators:
        words = [e.coeffs for block in gen for e in block]
        rows += generator_rows(code.k, code.lam.coeffs, code.ell, code.m, words)
    return rows


def spanning_rows(code: QTCode) -> tuple[RingVec, ...]:
    """m interleaved rows per generator tuple: x^i times the generator."""
    return tuple(unflatten_vec(flat, code.k, code.n) for flat in _flat_rows(code))


def qt_generator_matrix(code: QTCode) -> tuple[RingVec, ...]:
    """Display form [G_1 | G_2 | ... | G_ell] with twistulant blocks."""
    return tuple(sum(deinterleave(row, code.ell), ()) for row in spanning_rows(code))


def code_span(code: QTCode) -> ModuleSpan:
    return _span_of_flat(code.k, code.n, _flat_rows(code))


def enumerate_codewords(code: QTCode, budget: int = DEFAULT_BUDGET_LOG2) -> Iterator[RingVec]:
    return code_span(code).codewords(budget)


def rows_shift_invariant(
    rows: Sequence[Sequence[RingElement]],
    lam: RingElement,
    ell: int,
) -> bool:
    """True iff T_lambda^ell maps the module span of the rows into itself."""
    span = module_span(rows)
    if lam.k != span.k or not lam.is_unit:
        raise ValueError(f"twist lambda must be a unit of R_{span.k}")
    if not 1 <= ell <= span.n:
        raise ValueError(f"shift {ell} outside 1..{span.n}")
    f2 = F2Span(span.basis)
    return all(
        word in f2  # the row itself, then its shift
        for flat in map(flatten_vec, rows)
        for word in islice(_twisted_shifts(flat, span.k, span.n, lam.coeffs, ell), 2)
    )


def is_qt_invariant(code: QTCode) -> bool:
    return rows_shift_invariant(spanning_rows(code), code.lam, code.ell)


class WeightEnumerator:
    """Sparse weight -> count map, shared by homogeneous and Hamming distributions."""

    def __init__(self, counts: Mapping[int, int]):
        self._counts = {int(w): int(c) for w, c in counts.items() if c}

    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self._counts.items()))

    def __getitem__(self, weight: int) -> int:
        return self._counts.get(weight, 0)

    def total(self) -> int:
        return sum(self._counts.values())

    def min_nonzero(self) -> int | None:
        nz = [w for w in self._counts if w > 0]
        return min(nz) if nz else None

    def __eq__(self, other: object) -> bool:
        if isinstance(other, WeightEnumerator):
            return self._counts == other._counts
        return NotImplemented

    def __repr__(self) -> str:
        return f"WeightEnumerator({dict(self.pairs())})"

    def __str__(self) -> str:
        terms = []
        for w, c in self.pairs():
            if w == 0:
                terms.append(str(c))
            elif c == 1:
                terms.append(f"z^{w}")
            else:
                terms.append(f"{c}z^{w}")
        return " + ".join(terms) if terms else "0"


@dataclass(frozen=True)
class BinaryCode:
    """Binary linear code held as a canonical row-reduced generator basis."""

    length: int
    rows: tuple[int, ...]

    @classmethod
    def from_rows(cls, length: int, rows: Sequence[int]) -> "BinaryCode":
        return cls(length, F2Span(rows).basis())

    @property
    def rank(self) -> int:
        return len(self.rows)

    @cached_property
    def _weight_counts(self) -> dict[int, int]:
        return span_counts(self.rows, partial(map, int.bit_count))

    def weight_enumerator(self, budget: int = DEFAULT_BUDGET_LOG2) -> WeightEnumerator:
        _check_budget(self.rank, budget)
        return WeightEnumerator(self._weight_counts)

    def min_distance(self, budget: int = DEFAULT_BUDGET_LOG2) -> int:
        _check_budget(self.rank, budget)
        if self.rank == 0:
            raise ValueError("the zero code has no minimum distance")
        return span_min_weight(self.rows)

    def is_self_orthogonal(self) -> bool:
        rows = self.rows
        return all(
            ((rows[i] & rows[j]).bit_count() & 1) == 0
            for i in range(len(rows))
            for j in range(i, len(rows))
        )

    def is_self_dual(self) -> bool:
        return 2 * self.rank == self.length and self.is_self_orthogonal()

    def qc_index_check(self, s: int) -> bool:
        """True iff every generator row shifted by s positions stays in the code."""
        if s <= 0 or self.length % s:
            raise ValueError(f"shift {s} does not divide length {self.length}")
        span = F2Span(self.rows)
        return all(rotate_bits(row, s, self.length) in span for row in self.rows)

    def codewords(self, budget: int = DEFAULT_BUDGET_LOG2) -> Iterator[int]:
        _check_budget(self.rank, budget)
        return span_iter(self.rows)


@lru_cache(maxsize=2 * K_MAX)
def _byte_table(k: int, character: bool) -> bytes | tuple[bytes, ...]:
    """Image of every byte of a flat word over R_k, k <= K_MAX.

    A byte holds 8 >> k whole coordinates; each goes to its Gray image or,
    with character=True, to its ring.character_table entry.  Both maps are
    unit_count(k) bits wide and fixed per k.  For k = 1 one byte goes to
    one byte, so the table is a bytes.translate table; otherwise entry b
    is the bytes that byte b goes to.
    """
    lookup = character_table(k).__getitem__ if character else GrayMap(k).word_image
    w, width = 1 << k, unit_count(k)
    per_byte = 8 >> k
    images = []
    for b in range(256):
        img = 0
        for c in range(per_byte):
            img |= lookup(b >> c * w & (1 << w) - 1) << c * width
        images.append(img.to_bytes(per_byte * width // 8, "little"))
    return b"".join(images) if k == 1 else tuple(images)


def _map_coordinates(k: int, n: int, basis: Sequence[int], character: bool) -> list[int]:
    """Flat rows with each R_k coordinate replaced by its Gray image or character entry.

    Each row goes to bytes, through _byte_table and back.  Both maps send 0
    to 0, so the zero coordinates that pad the last byte stay zero.
    """
    table = _byte_table(k, character)
    size = ((n << k) + 7) >> 3
    if k == 1:
        return [
            int.from_bytes(flat.to_bytes(size, "little").translate(table), "little")
            for flat in basis
        ]
    get = table.__getitem__
    return [
        int.from_bytes(b"".join(map(get, flat.to_bytes(size, "little"))), "little")
        for flat in basis
    ]


def binary_image_of_span(span: ModuleSpan, gray: GrayMap | None = None) -> BinaryCode:
    """Binary Gray image of a span.

    Every GrayMap(k) with k <= K_MAX is the same map, so those spans go
    through one byte table per k and gray is not read; wider rings map one
    coordinate at a time through gray, a GrayMap built with allow_above_k_max.
    """
    k, n = span.k, span.n
    if k <= K_MAX:
        return BinaryCode.from_rows(n * unit_count(k), _map_coordinates(k, n, span.basis, False))
    gray = gray or GrayMap(k)
    w = 1 << k
    mask = (1 << w) - 1
    places = [(i * w, i * gray.image_len) for i in range(n)]
    rows = []
    for flat in span.basis:
        img = 0
        for src, dst in places:
            img |= gray.word_image(flat >> src & mask) << dst
        rows.append(img)
    return BinaryCode.from_rows(n * gray.image_len, rows)


def binary_image(code: QTCode) -> BinaryCode:
    return binary_image_of_span(code_span(code))


def hom_counts(k: int, n: int, basis: Sequence[int]) -> Counter:
    """Homogeneous weight -> count over the F2-span of flat length-n words over R_k.

    For k <= K_MAX the basis rows go through ring.character_table (see the
    module docstring); wider coordinates are weighed one RingElement at a time.
    """
    if k <= K_MAX:
        return span_counts(_map_coordinates(k, n, basis, True), partial(map, int.bit_count))
    return span_counts(basis, partial(map, lambda flat: hom_weight_vec(unflatten_vec(flat, k, n))))


def hom_weight_enumerator(code: QTCode, budget: int = DEFAULT_BUDGET_LOG2) -> WeightEnumerator:
    """Homogeneous weight distribution, computed on the ring side."""
    span = code_span(code)
    _check_budget(span.rank, budget)
    return WeightEnumerator(hom_counts(span.k, span.n, span.basis))


def residue_word(flat: int, k: int, n: int) -> int:
    """Bit i = residue (coefficient of u_empty) of coordinate i of a flat word."""
    n_bits = 1 << k
    return sum(((flat >> (i * n_bits)) & 1) << i for i in range(n))


def residue_code(code: QTCode) -> BinaryCode:
    """Binary projection of the code under reduction mod the maximal ideal."""
    span = code_span(code)
    return BinaryCode.from_rows(span.n, [residue_word(b, span.k, span.n) for b in span.basis])


def free_rank_check(g: Polynomial) -> tuple[bool, int | None]:
    """Divisibility test for freeness of the constacyclic code <g(x)>.

    Returns (is_free, rank) with rank = m - deg g when g | x^m - lambda,
    else (False, None).  The matching image-dimension consequence
    (2^k * rank) is verified empirically by the callers.
    """
    if poly_degree(g.coeffs) < 0:
        raise ValueError("zero polynomial")
    trimmed = list(g.coeffs[: poly_degree(g.coeffs) + 1])
    if divides_modulus(trimmed, g.m, g.lam):
        return True, g.m - g.degree()
    return False, None


def qc_equivalent(code: QTCode) -> QTCode:
    """The ell-QC code corresponding to a QT code of odd coindex.

    Applies the substitution x -> lambda*x blockwise to the generators; for
    odd m the codeword set of the result is exactly the grade-scaled image
    of the original code.
    """
    if code.m % 2 == 0:
        raise ValueError("QT/QC correspondence requires odd coindex")
    gens = tuple(
        tuple(grade_scaled(block, code.lam, 1) for block in gen) for gen in code.generators
    )
    return QTCode(one(code.k), code.ell, code.m, gens)


def code_record(
    code: QTCode,
    budget: int = DEFAULT_BUDGET_LOG2,
    notation: str | None = None,
) -> dict:
    """JSON-ready summary of a code and its binary image."""
    img = binary_image(code)
    enum = img.weight_enumerator(budget)
    s = unit_count(code.k) * code.ell  # divides the image length ell*m*|U|
    qc_index = s if code.lam.coeffs == 1 and img.qc_index_check(s) else None
    return {
        "k": code.k,
        "lambda": format_element(code.lam, notation),
        "ell": code.ell,
        "m": code.m,
        "generators": code.generator_strings(notation),
        "image": {
            "length": img.length,
            "dimension": img.rank,
            "min_distance": enum.min_nonzero(),
            "weight_enumerator": [list(p) for p in enum.pairs()],
        },
        "flags": {
            "self_orthogonal": img.is_self_orthogonal(),
            "qc_index": qc_index,
        },
    }
