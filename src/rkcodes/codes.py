"""Linear codes over R_k, quasitwisted constructions, and their binary Gray images.

Codes are built on flat words: a ring vector packed into one int, 2^k bits
per coordinate.  Multiplication by a monomial u_A acts alike on every
coordinate, so on a flat word v it is (v & M_A) << A, ring's product rule
with the mask M_A repeated over the coordinates (ring._monomial_masks).
The R_k-span of generator rows equals the F2-span of all u_A * row
(_module_words), so row-reducing those gives exact size and enumeration
whether or not the module is free.  Binary images apply the Gray map to
that F2 basis and row-reduce again; module_image_words maps all u_A * row
instead, which span the same image, so search reduces once; module_image
makes either a code with what a module's image is known to have.  For k
<= K_MAX a coordinate has 2, 4 or 8 bits, so every byte of a flat word
holds whole coordinates, and a row is mapped byte by byte through a
256-entry table built once per k.

Homogeneous weights are counted on the ring side, independently of the
Gray map, in blocks of weight / gamma(k), one per word (_hom_weights).
For k <= K_MAX each byte of a flat word holds whole coordinates, so it has
a fixed weight, the closed form hom_weight_vec of its coordinates
(_weight_table), and gf2.packed_weights makes a block one weight byte per
word; wider words give lists.  gf2's weight_counts, weight_halves and
least_weight reduce either.  The weight is invariant under the unit group
U, and only the unit 1 fixes a word outside the residue kernel.
So an R_k-module is weighed as its residue kernel plus one word of each unit
orbit outside it, each counted |U| times (hom_split; hom_minima walks the
same words for minima only).  Inside the kernel the units 1 + u_j fix more
words, so it is weighed one word per pair y, (1+u_j)*y of distinct words,
counted twice, plus the words every u_j kills.  Both are one split, _split
at y -> u_A*y: u_top*y is y's residue word on the top bit of each
coordinate, so the residue split (residue_split) is the split at u_top,
and each kernel level the split at u_j.  A span of one block is walked once
instead, kernel rows first, and counted in two parts.  Only hom_minima's
kernel minimum above one block reads the Gray image (module_image), for
k <= K_MAX.

binary_image (so code_record), hom_weight_enumerator and code_minima
(so analysis.bound_check) take a code's span from last_code, a memo of the
code object last asked about, which also keeps the hom_split that
hom_weight_enumerator made for code_minima to read.  Only back-to-back
calls on one code object gain, as wd and library chains make.  The key is
identity, as hashing a frozen QTCode walks every entry.  code_span keeps
no memo: each of its calls builds the span, which tracers count.

Quasitwisted codewords use the interleaved coordinate layout: the vector
position of coefficient i of block b is i*ell + b.  Under this layout the
global twisted shift T_lambda^ell acts as per-block multiplication by x,
so codes built from twistulant generators are literally T_lambda^ell
invariant and their binary images are literally (image_len * ell)-QC when
lambda = 1, and search sums a candidate's module_image_words from its
blocks' (analysis._BlockParts).  qt_generator_matrix returns the display
form of the same rows, the twistulant of each block side by side, which
differs from the span rows by the perfect-shuffle column permutation only.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cache, lru_cache
from itertools import islice
from typing import Iterable, Iterator, Mapping, Sequence

from rkcodes.gf2 import (
    LOW_ROWS,
    F2Span,
    least_weight,
    min_weight,
    packed_weights,
    rotate_bits,
    self_orthogonal,
    span_blocks,
    span_counts,
    span_iter,
    weight_counts,
    weight_halves,
)
from rkcodes.graymap import GrayMap
from rkcodes.polyqt import (
    RingVec,
    format_generator,
    parse_element,
    parse_generator,
    twistulant,
)
from rkcodes.ring import (
    K_MAX,
    RingElement,
    _monomial_masks,
    format_element,
    gamma,
    hom_weight_vec,
    unit_count,
)

DEFAULT_BUDGET_LOG2 = 24


class BudgetError(RuntimeError):
    """An enumeration would exceed the configured 2^budget codeword cap."""


def _check_budget(rank: int, budget: int) -> None:
    """Every enumeration passes here; a negative budget is a usage error."""
    if rank > budget:
        if budget < 0:
            raise ValueError(f"--budget must be at least 0, got {budget}")
        raise BudgetError(f"span has 2^{rank} words, over the 2^{budget} budget")


def flatten_vec(vec: Sequence[RingElement]) -> int:
    """Pack a ring vector into an int, 2^k bits per coordinate."""
    bits = 1 << vec[0].k
    return sum(e.coeffs << (i * bits) for i, e in enumerate(vec))


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


def _module_words(k: int, n: int, rows: Iterable[int]) -> list[int]:
    """All u_A * row, row-major: F2-words spanning the R_k-module of the flat rows."""
    masks = _monomial_masks(k, n)
    return [(flat & mask) << a for flat in rows for a, mask in masks]


def _span_of_flat(k: int, n: int, rows: Iterable[int]) -> ModuleSpan:
    """F2 basis of the R_k-module generated by flat rows."""
    return ModuleSpan(k, n, F2Span(_module_words(k, n, rows)).basis())


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
        if not gens:
            raise ValueError("need at least one generator tuple")
        ell_seen = len(gens[0])
        m_seen = len(gens[0][0])
        if ell is not None and ell != ell_seen:
            raise ValueError(f"generator has {ell_seen} blocks but ell={ell} was given")
        if m is not None and m != m_seen:
            raise ValueError(f"blocks have length {m_seen} but m={m} was given")
        return cls(lam_elem, ell_seen, m_seen, gens)

    def generator_strings(self, notation: str | None = None) -> list[str]:
        return [format_generator(gen, notation) for gen in self.generators]


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


def qt_generator_matrix(code: QTCode) -> tuple[RingVec, ...]:
    """Display form [G_1 | G_2 | ... | G_ell] with twistulant blocks."""
    return tuple(
        sum(row, ())
        for gen in code.generators
        for row in zip(*(twistulant(block, code.lam) for block in gen))
    )


def code_span(code: QTCode) -> ModuleSpan:
    return _span_of_flat(code.k, code.n, _flat_rows(code))


class _LastCode:
    """The code object last asked about, its span and, once made, its hom_split.

    The entry is one tuple, read and replaced whole, so a caller never
    mixes parts of two codes.
    """

    entry: tuple = (None, None, None)

    def reset(self) -> None:
        self.entry = (None, None, None)

    def get(self, code: QTCode) -> tuple[ModuleSpan, tuple | None]:
        """(span, hom_split or None) of the code; the span is built unless code is the last."""
        entry = self.entry
        if entry[0] is not code:
            entry = self.entry = code, code_span(code), None
        return entry[1:]


last_code = _LastCode()


def enumerate_codewords(code: QTCode, budget: int = DEFAULT_BUDGET_LOG2) -> Iterator[RingVec]:
    return code_span(code).codewords(budget)


def span_shift_invariant(span: ModuleSpan, lam: RingElement, ell: int) -> bool:
    """True iff T_lambda^ell maps the span into itself, checked on every basis row."""
    if lam.k != span.k or not lam.is_unit:
        raise ValueError(f"twist lambda must be a unit of R_{span.k}")
    if not 1 <= ell <= span.n:
        raise ValueError(f"shift {ell} outside 1..{span.n}")
    f2 = F2Span(span.basis)
    return all(
        next(islice(_twisted_shifts(flat, span.k, span.n, lam.coeffs, ell), 1, None)) in f2
        for flat in span.basis
    )


def is_qt_invariant(code: QTCode) -> bool:
    return span_shift_invariant(code_span(code), code.lam, code.ell)


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
        return min((w for w in self._counts if w > 0), default=None)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, WeightEnumerator):
            return self._counts == other._counts
        return NotImplemented

    def __repr__(self) -> str:
        return f"WeightEnumerator({dict(self.pairs())})"

    def __str__(self) -> str:
        terms = (str(c) if w == 0 else f"{c if c > 1 else ''}z^{w}" for w, c in self.pairs())
        return " + ".join(terms) or "0"


@dataclass(frozen=True)
class BinaryCode:
    """Binary linear code held as a canonical row-reduced generator basis.

    divisor (every weight is a multiple of it) and parts (those of
    gf2.info_set_min_weight) are what module_image knows of a code, and
    binary_image_of_span the divisor only.  Equality, hashing and repr skip them.
    """

    length: int
    rows: tuple[int, ...]
    divisor: int = field(default=1, compare=False, repr=False)
    parts: tuple[tuple[int, int], ...] = field(default=(), compare=False, repr=False)

    @classmethod
    def from_rows(cls, length: int, rows: Sequence[int]) -> "BinaryCode":
        return cls(length, F2Span(rows).basis())

    @property
    def rank(self) -> int:
        return len(self.rows)

    def weight_enumerator(self, budget: int = DEFAULT_BUDGET_LOG2) -> WeightEnumerator:
        _check_budget(self.rank, budget)
        return WeightEnumerator(span_counts(self.rows))

    def min_distance(self, budget: int = DEFAULT_BUDGET_LOG2) -> int:
        _check_budget(self.rank, budget)
        if self.rank == 0:
            raise ValueError("the zero code has no minimum distance")
        return min_weight(self.rows, self.parts, self.divisor)

    def is_self_orthogonal(self) -> bool:
        """A doubly-even code is self-orthogonal: 2*wt(x & y) = wt(x) + wt(y) - wt(x ^ y)."""
        return self.divisor % 4 == 0 or self_orthogonal(self.rows)

    def qc_index_check(self, s: int) -> bool:
        """True iff every generator row shifted by s positions stays in the code."""
        if s <= 0 or self.length % s:
            raise ValueError(f"shift {s} does not divide length {self.length}")
        span = F2Span(self.rows)
        return all(rotate_bits(row, s, self.length) in span for row in self.rows)

    def codewords(self, budget: int = DEFAULT_BUDGET_LOG2) -> Iterator[int]:
        _check_budget(self.rank, budget)
        return span_iter(self.rows)


@cache
def _byte_table(k: int) -> bytes | tuple[bytes, ...]:
    """Gray image of every byte of a flat word over R_k, k <= K_MAX: of its 8 >> k coordinates.

    Built by linearity: span_blocks sums, in byte order, the basis rows of
    bit j (monomial j % 2^k of coordinate j >> k).  At k = 1 a byte goes to
    a byte, so it is a bytes.translate table; else entry b is byte b's image.
    """
    gray, size = GrayMap(k), unit_count(k) >> k  # the bytes of 8 >> k coordinates' image
    rows = [gray.basis_rows[j % (1 << k)] << (j >> k) * gray.image_len for j in range(8)]
    images = [img.to_bytes(size, "little") for img in next(iter(span_blocks(rows)))]
    return b"".join(images) if k == 1 else tuple(images)


def _map_coordinates(k: int, n: int, basis: Sequence[int]) -> list[int]:
    """Flat rows with each R_k coordinate replaced by its Gray image.

    Each row goes to bytes, through _byte_table and back.  The Gray map
    sends 0 to 0, so the zero coordinates that pad the last byte stay zero.
    """
    table = _byte_table(k)
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


def binary_image_of_span(span: ModuleSpan) -> BinaryCode:
    """Binary Gray image of a span, mapped through the byte table of its k.

    Its divisor is gamma(k): a word weighs the homogeneous weight of its
    preimage, a sum of 0, gamma and 2*gamma.  So at k >= 2 it is
    doubly-even, hence self-orthogonal.  It gets no parts, as the span
    need not be a module.  Gray images exist for k <= K_MAX only; a wider
    span raises GrayMap's ValueError.
    """
    k, n = span.k, span.n
    rows = F2Span(_map_coordinates(k, n, span.basis)).basis()
    return BinaryCode(n * unit_count(k), rows, gamma(k))


def module_image_words(k: int, n: int, rows: Iterable[int]) -> list[int]:
    """Gray images of all u_A * row, row-major: they span the binary image of the rows' module."""
    return _map_coordinates(k, n, _module_words(k, n, rows))


@cache
def _unit_columns(k: int) -> tuple[int, ...]:
    """The Gray column of each unit of R_k, ordered so that the first 2^i units form a group.

    Bit c of psi(a) is parity(a & w_c), w_c the column word of c (bit A =
    bit c of psi(u_A)).  Multiplication by lambda moves the all-ones
    column word, a -> parity(a), to the one of a -> parity(lambda*a), with
    bit A = parity(lambda & M_A): the column of lambda.  U acts on the
    columns regularly, mu taking the column of lambda to that of
    mu*lambda.  The group doubles by 1 + u_1, ..., 1 + u_k, then the other
    1 + u_A by degree; its first 2^i units, i <= k, span the 2^i monomials
    in u_1..u_i, so their columns read all they can of a coordinate.
    """
    masks = [mask for _, mask in _monomial_masks(k, 1)]
    rows = GrayMap(k).basis_rows
    where = {sum((row >> c & 1) << a for a, row in enumerate(rows)): c for c in range(unit_count(k))}
    group = [1]
    for a in sorted(range(1, 1 << k), key=int.bit_count):
        group += [x ^ (x & masks[a]) << a for x in group]  # (1 + u_A) * x
    return tuple(
        where[sum(((lam & mask).bit_count() & 1) << a for a, mask in enumerate(masks))]
        for lam in group
    )


@lru_cache(maxsize=256)
def image_parts(k: int, n: int) -> tuple[tuple[int, int], ...]:
    """The (columns, copies) pairs of gf2.info_set_min_weight for Gray images of R_k-modules.

    Part h (h = 1, 2, 4, ..., |U|/2) holds, in each of the n coordinates,
    the columns of the first h units of _unit_columns, a subgroup H of U.
    Multiplication by a unit permutes the columns of every coordinate
    alike and maps the image of a module onto itself, and the units of a
    coset g*H move the part onto the columns of g*H: |U|/h disjoint copies.
    """
    size = unit_count(k)
    columns = _unit_columns(k)
    repunit = ((1 << n * size) - 1) // ((1 << size) - 1)  # bit 0 of every coordinate
    return tuple(
        (sum(1 << c for c in columns[:h]) * repunit, size // h)
        for h in (1 << i for i in range(size.bit_length() - 1))
    )


def module_image(k: int, n: int, image_words: Iterable[int]) -> BinaryCode:
    """The binary code spanned by image_words, the Gray images of words spanning an R_k-module,
    with divisor gamma(k) (binary_image_of_span) and the unit group's image_parts(k, n)."""
    return BinaryCode(n * unit_count(k), F2Span(image_words).basis(), gamma(k), image_parts(k, n))


def binary_image(code: QTCode) -> BinaryCode:
    """Binary Gray image of the code: the module_image of its span's Gray-mapped basis."""
    span = last_code.get(code)[0]
    return module_image(span.k, span.n, _map_coordinates(span.k, span.n, span.basis))


@cache
def _weight_table(k: int) -> bytes:
    """Homogeneous weight / gamma(k) of each byte of a flat word over R_k, k <= K_MAX."""
    return bytes(hom_weight_vec(unflatten_vec(b, k, 8 >> k)) // gamma(k) for b in range(256))


def _hom_weights(k: int, n: int, rows: Sequence[int], start: int = 0) -> Iterator:
    """Homogeneous weight / gamma(k), at most 2n, of each word of start ^ span(rows), a block
    of span_blocks at a time: gf2.packed_weights through _weight_table for k <= K_MAX, and
    lists of hom_weight_vec past it."""
    if k <= K_MAX:
        return packed_weights(rows, _weight_table(k), ((n << k) + 7) >> 3, start)
    g = gamma(k)
    return (
        [hom_weight_vec(unflatten_vec(flat, k, n)) // g for flat in block]
        for block in span_blocks(rows, start)
    )


def _split(
    k: int, n: int, rows: Sequence[int], a: int
) -> tuple[list[int], list[int], list[int]]:
    """(images, lifts, kernel): the F2-span of flat words split at y -> u_A*y, A = a.

    images is the RREF basis of the u_A*y, with pivots q_1 < ... < q_s.
    One RREF of u_A*y | (y & key) << W | y << 2W, W the width of a flat
    word, gives the rest: its rows with a nonzero first part are the lifts
    g_i, u_A*g_i with pivot q_i, and the other rows, shifted down, span the
    kernel {y : u_A*y = 0}.  The key is the q_i for u_j, and every ideal
    bit of the coordinates of the q_i for u_top; at k = 1 the two agree.

    For an R_k-module each lift is zero on the key, and the kernel basis is
    made of s groups of `group` rows, group i the rows with a key bit at
    q_i's coordinate (group = 2^k - 1 for u_top, one ideal bit each;
    group = 1 for u_j, the row with bit q_i), followed by rows zero on the
    key.  _cosets(lifts, kernel, group) then holds one word of each class
    of 2^group words that the callers weigh as one: 2^f + 2^group * sum
    |g_i + E_i| = 2^b, with b and f the ranks of the rows and of the
    kernel.  At u_top, u_top*y is y's residue word on the top bit of each
    coordinate: the kernel is the residue kernel, and a word y outside it
    whose last lift is g_i has a unit at q_i's coordinate, so only the unit
    1 of the unit group U fixes y and no unit changes that last lift; the
    orbit U*y, of |U| = 2^group words, meets g_i + E_i exactly once.  At
    u_j, (1+u_j)*y = y + u_j*y is a unit multiple of y, and y exactly when
    u_j*y = 0; the two words of a pair differ at q_i for g_i the last lift
    they hold, so g_i + E_i holds one word of each pair outside the kernel.
    """
    w, width = 1 << k, n << k
    mask = _monomial_masks(k, n)[a][1]
    images = list(F2Span((y & mask) << a for y in rows).basis())
    q = sum(r & -r for r in images)
    key = (q >> a) * ((1 << w) - 2) if a == w - 1 else q
    joint = F2Span((y & mask) << a | (y & key) << width | y << 2 * width for y in rows).basis()
    low = (1 << width) - 1
    lifts = [r >> 2 * width for r in joint if r & low]
    kernel = [r >> 2 * width for r in joint if not r & low]
    return images, lifts, kernel


def residue_split(
    k: int, n: int, basis: Sequence[int]
) -> tuple[list[int], list[int], list[int]]:
    """(residues, lifts, kernel): the F2-span of flat words split at the residue map.

    This is _split at u_top.  residues is the residue code's RREF basis
    with each residue bit on the top bit of its coordinate, so each word
    weighs its residue weight.  In an R_k-module the lift r_i has the
    coordinate 1 at the i-th residue pivot p_i and 0 at every other p_j,
    and the kernel rows come in one group of 2^k - 1 per p_i, each row with
    one ideal bit at p_i; the cosets of _cosets(lifts, kernel, 2^k - 1)
    hold one word of every unit orbit outside the residue kernel.
    """
    return _split(k, n, basis, (1 << k) - 1)


def _cosets(
    lifts: list[int], rows: list[int], group: int
) -> Iterator[tuple[int, list[int]]]:
    """(lifts[i], basis of E_i) for each i, with E_i = span(lifts[:i], rows outside group i).

    Group i is rows[i*group : (i+1)*group].
    """
    for i, start in enumerate(lifts):
        yield start, lifts[:i] + rows[: i * group] + rows[(i + 1) * group:]


def hom_split(k: int, n: int, basis: tuple) -> tuple[tuple[int, ...], Mapping, Mapping]:
    """(residues, inside, outside) for the R_k-module spanned by the flat words of basis.

    residues is the residue code's RREF basis (residue_split).  inside
    maps homogeneous weight -> count over the residue kernel, zero word
    included, and outside over the other words.  A span of one block is
    walked once, kernel rows first: blocks double row by row, so its first
    2^f words are the kernel, f its rank.  A larger one weighs inside by
    pairs y, (1+u_j)*y at each u_j but u_top while the rows left exceed one
    block, then a walk, and outside one word per unit orbit: (2^rank -
    2^b)/|U| + (2^b + 2^f)/2 words, b and f the ranks of the kernel and of
    the rows left.
    """
    residues, lifts, rows = residue_split(k, n, basis)
    g, top = gamma(k), 2 * n
    if len(basis) <= LOW_ROWS:
        block = next(_hom_weights(k, n, rows + lifts))
        inside, outside = weight_halves(block, top, 1 << len(rows))
    else:
        units = (1 << k) - 1  # log2 |U|
        inside, outside = Counter(), Counter()
        for start, coset in _cosets(lifts, rows, units):
            counts = weight_counts(_hom_weights(k, n, coset, start), top)
            outside.update({w: c << units for w, c in counts.items()})
        for a in (1 << j for j in range(k) if 1 << j != units):  # at k = 1, u_1 is u_top
            if len(rows) <= LOW_ROWS:
                break
            _, lifts, rows = _split(k, n, rows, a)
            for start, coset in _cosets(lifts, rows, 1):
                counts = weight_counts(_hom_weights(k, n, coset, start), top)
                inside.update({w: 2 * c for w, c in counts.items()})
        inside.update(weight_counts(_hom_weights(k, n, rows), top))
    return tuple(residues), *({g * w: c for w, c in part.items()} for part in (inside, outside))


def split_minima(residues: tuple, inside: Mapping, outside: Mapping) -> tuple:
    """hom_minima read from a hom_split: the least nonzero weight of each part."""
    return residues, min((w for w in inside if w), default=None), min(outside, default=None)


def hom_minima(k: int, n: int, basis: tuple) -> tuple[tuple[int, ...], int | None, int | None]:
    """(residues, d_kernel, d_nonkernel): hom_split's residues and the least nonzero weights.

    d_kernel is the least inside the residue kernel, d_nonkernel outside
    it, None for no word.  A span of one block takes them from hom_split's
    one walk; a larger one from a min-only walk of each coset, as a full
    split can cost far more, and from the kernel's minimum distance: of its
    module_image for k <= K_MAX, by information sets, and of a walk past it.
    """
    if len(basis) <= LOW_ROWS:
        return split_minima(*hom_split(k, n, basis))
    residues, lifts, kernel = residue_split(k, n, basis)
    g, top = gamma(k), 2 * n
    cosets = _cosets(lifts, kernel, (1 << k) - 1)
    least = [least_weight(_hom_weights(k, n, rows, start), top) for start, rows in cosets]
    d_nonkernel = g * min(least) if least else None
    if not kernel:
        d_kernel = None
    elif k <= K_MAX:  # information sets need Hamming weights: the Gray image's
        d_kernel = module_image(k, n, _map_coordinates(k, n, kernel)).min_distance(len(kernel))
    else:  # least_weight skips weight 0, the zero word's only
        d_kernel = g * least_weight(_hom_weights(k, n, kernel), top)
    return tuple(residues), d_kernel, d_nonkernel


def code_minima(code: QTCode, budget: int = DEFAULT_BUDGET_LOG2) -> tuple:
    """hom_minima of the code's span; split_minima of its split instead if last_code has one."""
    span, split = last_code.get(code)
    _check_budget(span.rank, budget)
    return split_minima(*split) if split else hom_minima(span.k, span.n, span.basis)  # a module


def hom_weight_enumerator(code: QTCode, budget: int = DEFAULT_BUDGET_LOG2) -> WeightEnumerator:
    """Homogeneous weight distribution, computed on the ring side; last_code keeps its split."""
    span, split = last_code.get(code)
    _check_budget(span.rank, budget)
    if split is None:
        split = hom_split(span.k, span.n, span.basis)  # a code span is a module
        last_code.entry = code, span, split
    _, inside, outside = split
    return WeightEnumerator({w: inside.get(w, 0) + outside.get(w, 0) for w in {*inside, *outside}})


def residue_word(flat: int, k: int, n: int) -> int:
    """Bit i = residue (coefficient of u_empty) of coordinate i of a flat word."""
    return sum((flat >> (i << k) & 1) << i for i in range(n))


def residue_code(code: QTCode) -> BinaryCode:
    """Binary projection of the code under reduction mod the maximal ideal."""
    span = code_span(code)
    return BinaryCode.from_rows(span.n, [residue_word(b, span.k, span.n) for b in span.basis])


def qc_index(code: QTCode, img: BinaryCode) -> int | None:
    """s = |U|*ell when lambda = 1 and the binary image is s-quasicyclic, else None."""
    s = unit_count(code.k) * code.ell  # divides the image length ell*m*|U|
    return s if code.lam.coeffs == 1 and img.qc_index_check(s) else None


def code_record(
    code: QTCode,
    budget: int = DEFAULT_BUDGET_LOG2,
    notation: str | None = None,
) -> dict:
    """JSON-ready summary of a code and its binary image."""
    img = binary_image(code)
    enum = img.weight_enumerator(budget)
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
            "qc_index": qc_index(code, img),
        },
    }
