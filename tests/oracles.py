"""Builders and brute-force oracles for the paper's facts that the tests check.

The unit group, the code families with their predicted parameters, the
Griesmer bound, free rank by division, the QC form of an odd-coindex QT
code, and unit multiplication as a permutation of Gray coordinates: the
library has no caller for them.  Also the search orbit check on formatted
generator strings, which search's rank keys replaced, and the products
that ring's mask rule and polyqt's twistulant rows replaced: the R_k
product by pairs of monomials and the schoolbook product modulo
x^m - lambda.
"""

from __future__ import annotations

from functools import reduce
from typing import Iterator, Sequence

from rkcodes.analysis import _orbit_min_string, build_row_code, load_table_rows
from rkcodes.codes import (
    ModuleSpan, QTCode, binary_image_of_span, code_span, module_span, unflatten_vec
)
from rkcodes.graymap import GrayMap
from rkcodes.polyqt import (
    Polynomial, format_generator, grade_scaled, poly_degree, poly_divmod, shift
)
from rkcodes.ring import RingElement, elements, gamma, unit_count, zero


def one(k: int) -> RingElement:
    return RingElement(k, 1)


def top(k: int) -> RingElement:
    """The top monomial u_1 u_2 ... u_k."""
    return RingElement(k, 1 << ((1 << k) - 1))


def units(k: int) -> Iterator[RingElement]:
    """The units of R_k, ordered by coefficient word: those with bit 0 set."""
    return (RingElement(k, c) for c in range(1, 1 << (1 << k), 2))


def bit_pair_product(a: RingElement, b: RingElement) -> RingElement:
    """a * b by pairs of monomials: u_A u_B = u_(A+B) when A and B are disjoint, else 0."""
    out = 0
    x = a.coeffs
    while x:
        bit_a = x & -x
        x ^= bit_a
        mask_a = bit_a.bit_length() - 1
        y = b.coeffs
        while y:
            bit_b = y & -y
            y ^= bit_b
            mask_b = bit_b.bit_length() - 1
            if mask_a & mask_b == 0:
                out ^= 1 << (mask_a | mask_b)
    return RingElement(a.k, out)


def schoolbook_product(f: Polynomial, g: Polynomial) -> Polynomial:
    """f * g term by term, x^(i+j) = lambda * x^(i+j-m) past m, on bit_pair_product."""
    m = f.m
    out = [zero(f.k) for _ in range(m)]
    for i, a in enumerate(f.coeffs):
        for j, b in enumerate(g.coeffs):
            prod = bit_pair_product(a, b)
            if i + j < m:
                out[i + j] += prod
            else:
                out[i + j - m] += bit_pair_product(f.lam, prod)  # x^m = lambda
    return Polynomial(tuple(out), f.lam)


def character_unit_sum(x: RingElement) -> int:
    """Sum of chi(alpha * x) over all units alpha: |U| at 0, -|U| at the top monomial, else 0."""
    return sum((u * x).character() for u in units(x.k))


def shift_n(vec: Sequence[RingElement], lam: RingElement, steps: int) -> tuple:
    """T_lambda applied steps times, one polyqt.shift at a time."""
    return reduce(lambda out, _: shift(out, lam), range(steps), tuple(vec))


def interleave(blocks: Sequence[Sequence[RingElement]]) -> tuple:
    """Blockwise tuple -> codeword layout: position i*ell + b holds block b, coefficient i."""
    return tuple(e for column in zip(*blocks) for e in column)


def digit_blocks(k: int, m: int, digits: Sequence[int]) -> tuple:
    """The blocks of a search digit tuple: digits[b*m + i] is coefficient i of block b."""
    return tuple(
        tuple(RingElement(k, c) for c in digits[lo:lo + m]) for lo in range(0, len(digits), m)
    )


def orbit_strings(blocks: Sequence[Sequence[RingElement]], lam: RingElement, notation) -> list:
    """format_generator of the blocks after 0..m-1 simultaneous twisted shifts."""
    strings = []
    for _ in range(len(blocks[0])):
        strings.append(format_generator(blocks, notation))
        blocks = tuple(shift(block, lam) for block in blocks)
    return strings


def pair_signs(items: Sequence) -> list[int]:
    """sign(a - b) for every ordered pair of items: their order, ties included."""
    return [(a > b) - (a < b) for a in items for b in items]


def check_orbit_keys(shifts: Sequence[Sequence[bytes]], blocks, lam: RingElement, notation) -> bool:
    """Search's shift keys of a candidate against its formatted orbit; True if it is orbit-least.

    shifts[b][s] is _BlockParts' key of block b after s shifts.  Every pair of
    shifts must compare as their generator strings do, and _orbit_min_string
    must keep the candidate exactly when its string is the orbit's least.
    """
    keys = [b"".join(key) for key in zip(*shifts)]
    strings = orbit_strings(blocks, lam, notation)
    assert pair_signs(keys) == pair_signs(strings), strings
    own, least = _orbit_min_string(shifts)
    assert (own, least) == (keys[0], min(keys))
    assert (own == least) == (strings[0] == min(strings)), strings
    return own == least


def oracle_spanning_rows(code: QTCode) -> tuple:
    """m interleaved rows per generator tuple: x^i times the generator, by shift_n."""
    return tuple(
        interleave(tuple(shift_n(block, code.lam, i) for block in gen))
        for gen in code.generators
        for i in range(code.m)
    )


def repetition_code_family(k: int, n: int) -> tuple[QTCode, tuple[int, int, int]]:
    """Length-n repetition code over R_k and its predicted image [n*|U|, 2^k, n*gamma]."""
    return QTCode(one(k), 1, n, (((one(k),) * n,),)), (n * unit_count(k), 1 << k, n * gamma(k))


def six_m_family(m: int) -> tuple[QTCode, tuple[int, int, int]]:
    """The four-codeword (1+u, 3)-QT family over R_1 with image [6m, 2, 4m]."""
    u, lam = RingElement(1, 0b10), RingElement(1, 0b11)  # lambda = 1 + u
    pair = (zero(1), u) if m % 2 == 0 else (one(1), lam)
    block = tuple(pair[i % 2] for i in range(m))
    return QTCode(lam, 3, m, ((block, block, (u,) * m),)), (6 * m, 2, 4 * m)


def griesmer_sum(dim: int, d: int) -> int:
    """Griesmer lower bound on the length of a binary [n, dim, d] code."""
    return sum(-(-d // (1 << i)) for i in range(dim))


def free_rank(g: Sequence[RingElement], m: int, lam: RingElement) -> int | None:
    """m - deg g when the monic g divides x^m - lambda in R_k[x], else None."""
    modulus = [lam] + [zero(lam.k)] * (m - 1) + [one(lam.k)]
    _, rem = poly_divmod(modulus, g)
    return m - poly_degree(g) if poly_degree(rem) < 0 else None


def qc_equivalent(code: QTCode) -> QTCode:
    """The ell-QC code of x -> lambda*x applied blockwise to the generators (odd coindex)."""
    gens = tuple(tuple(grade_scaled(block, code.lam, 1) for block in gen) for gen in code.generators)
    return QTCode(one(code.k), code.ell, code.m, gens)


def grade_scaled_span(code: QTCode) -> ModuleSpan:
    """The code's words with coordinate i scaled by lambda^(i // ell): its QC form at odd m."""
    span = code_span(code)
    return module_span(
        [grade_scaled(unflatten_vec(b, code.k, span.n), code.lam, code.ell) for b in span.basis]
    )


def table1_qc6_report() -> list[tuple[int, bool]]:
    """(m, whether the grade-scaled image is 6-QC) for each Table 1 row."""
    return [
        (row.m, binary_image_of_span(grade_scaled_span(build_row_code(row))).qc_index_check(6))
        for row in load_table_rows((1,))
    ]


def unit_mul_permutation(gray: GrayMap, lam: RingElement) -> tuple[int, ...] | None:
    """P with psi(lam*a) = psi(a) moved by P (coordinate c to P[c]) for every a in R_k, or None.

    Column c of psi(a) over all a in R_k is column P[c] of psi(lam*a).
    """
    ring = list(elements(gray.k))
    columns = lambda images: list(zip(*(format(w, f"0{gray.image_len}b")[::-1] for w in images)))
    moved = {col: c for c, col in enumerate(columns([gray.element_image(lam * a) for a in ring]))}
    perm = tuple(moved.get(col) for col in columns([gray.element_image(a) for a in ring]))
    return perm if None not in perm and len(set(perm)) == len(perm) else None


def apply_permutation(perm: Sequence[int], bits: int) -> int:
    return sum(1 << perm[c] for c in range(len(perm)) if bits >> c & 1)
