"""Exact arithmetic in the finite ring family R_k.

R_k = F2[u_1, ..., u_k] / (u_i^2 = 0, u_i u_j = u_j u_i) is a local
Frobenius ring with 2^(2^k) elements.  An element is an F2-combination of
the square-free monomials u_A, A a subset of {1..k}, and is stored as a
plain int: bit idx(A) = sum(2^(i-1) for i in A) holds the coefficient of
u_A.  The subset index doubles as the subset bitmask (bit i-1 set exactly
when i is in A), so a product of monomials is a bitmask union and the
"u_i^2 = 0" relation is the disjointness test `idx_a & idx_b == 0`.
The product is stated once, in _monomial_masks: u_A * b = (b & M_A) << A,
M_A the bits u_B with A & B == 0, and a * b sums it over the u_A in a.

Facts used throughout the package:

  * a is a unit iff the coefficient of u_empty (bit 0) is 1; every unit is
    its own inverse (a^2 = 1 for units, 0 for non-units), and units and
    non-units each number 2^(2^k - 1).
  * a * u_1...u_k is the top monomial when a is a unit and 0 otherwise.
  * chi(a) = (-1)^popcount(a) is an additive character that is non-trivial
    on every nonzero principal ideal.
  * the homogeneous weight is 0 at 0, 2^(2^k - 1) at the top monomial, and
    gamma = 2^(2^k - 2) everywhere else; on vectors it adds coordinatewise.
  * w(x) = gamma * (1 - (1/|U|) * sum over units u of chi(u*x)), and
    |U| = 2*gamma, so w(x) = #{u in U : chi(u*x) = -1}.  The package weighs
    by the closed form (hom_weight); the tests check it against this sum.

Text encodings: single symbols 0/1/u/3 for R_1 (3 denotes 1+u), one hex
digit per element for R_2 (basis order uv, v, u, 1, so the digit value
equals the stored coefficient word), and explicit monomial sums such as
"1+u1+u1u2" for any k.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

K_MAX = 3  # largest k with a Gray image and whole coordinates in every byte
_K_CAP = 6  # sanity bound for ring arithmetic (coefficient word of 2^k bits)

NOTATIONS = ("r1", "hex", "generic")

_R1_PARSE = {"0": 0b00, "1": 0b01, "u": 0b10, "3": 0b11}
_R1_FORMAT = {v: s for s, v in _R1_PARSE.items()}
_MONOMIAL_RE = re.compile(r"u([1-9])")


@lru_cache(maxsize=256)
def _monomial_masks(k: int, n: int) -> tuple[tuple[int, int], ...]:
    """(A, M_A) for every monomial u_A, with M_A repeated over n coordinates: the product rule."""
    w = 1 << k
    repunit = ((1 << n * w) - 1) // ((1 << w) - 1)  # bit 0 of every coordinate
    return tuple((a, sum(1 << b for b in range(w) if not a & b) * repunit) for a in range(w))


def gamma(k: int) -> int:
    """Average homogeneous weight on R_k: 2^(2^k - 2)."""
    return 1 << ((1 << k) - 2)


def unit_count(k: int) -> int:
    """|U(R_k)| = |D(R_k)| = 2^(2^k - 1)."""
    return 1 << ((1 << k) - 1)


@dataclass(frozen=True, order=True)
class RingElement:
    """Element of R_k; bit idx(A) of `coeffs` is the coefficient of u_A."""

    k: int
    coeffs: int

    def __post_init__(self) -> None:
        if not 1 <= self.k <= _K_CAP:
            raise ValueError(f"ring parameter k must be in 1..{_K_CAP}, got {self.k}")
        if not 0 <= self.coeffs < 1 << (1 << self.k):
            raise ValueError(f"coefficient word {self.coeffs:#x} does not fit R_{self.k}")

    def _same_ring(self, other: "RingElement") -> None:
        if self.k != other.k:
            raise ValueError(f"mixed ring parameters: k={self.k} vs k={other.k}")

    def __add__(self, other: "RingElement") -> "RingElement":
        self._same_ring(other)
        return RingElement(self.k, self.coeffs ^ other.coeffs)

    __sub__ = __add__  # characteristic 2

    def __mul__(self, other: "RingElement") -> "RingElement":
        self._same_ring(other)
        out = 0
        for a, mask in _monomial_masks(self.k, 1):  # u_A * b = (b & M_A) << A, over the u_A in self
            if self.coeffs >> a & 1:
                out ^= (other.coeffs & mask) << a
        return RingElement(self.k, out)

    def __bool__(self) -> bool:
        return self.coeffs != 0

    def __str__(self) -> str:
        return format_element(self)

    @property
    def is_unit(self) -> bool:
        return bool(self.coeffs & 1)

    @property
    def is_top(self) -> bool:
        return self.coeffs == 1 << ((1 << self.k) - 1)

    def character(self) -> int:
        """Canonical additive character: (-1)^popcount(coeffs)."""
        return -1 if self.coeffs.bit_count() & 1 else 1

    def hom_weight(self) -> int:
        """Homogeneous weight: 0, 2*gamma at the top monomial, gamma otherwise."""
        if self.coeffs == 0:
            return 0
        if self.is_top:
            return 2 * gamma(self.k)
        return gamma(self.k)

    def residue(self) -> int:
        """Reduction mod the maximal ideal: the coefficient of u_empty."""
        return self.coeffs & 1


def monomial(k: int, indices: Iterable[int]) -> RingElement:
    """u_A for A = set(indices); monomial(k, ()) is 1."""
    mask = 0
    for i in indices:
        if not 1 <= i <= k:
            raise ValueError(f"generator u{i} does not exist in R_{k}")
        bit = 1 << (i - 1)
        if mask & bit:
            raise ValueError(f"repeated generator u{i}")
        mask |= bit
    return RingElement(k, 1 << mask)


def elements(k: int) -> Iterator[RingElement]:
    """All 2^(2^k) elements, ordered by coefficient word."""
    return (RingElement(k, c) for c in range(1 << (1 << k)))


def hom_weight_vec(vec: Iterable[RingElement]) -> int:
    """Homogeneous weight of a vector: coordinatewise sum."""
    return sum(e.hom_weight() for e in vec)


def default_notation(k: int) -> str:
    if k == 1:
        return "r1"
    if k == 2:
        return "hex"
    return "generic"


def parse_element(text: str, k: int, notation: str | None = None) -> RingElement:
    """Parse one element; round-trips with format_element."""
    notation = notation or default_notation(k)
    t = text.strip()
    if notation == "r1":
        if k != 1:
            raise ValueError("r1 symbols 0/1/u/3 only encode R_1")
        try:
            return RingElement(1, _R1_PARSE[t])
        except KeyError:
            raise ValueError(f"bad R_1 symbol {text!r}") from None
    if notation == "hex":
        if k != 2:
            raise ValueError("hex digits only encode R_2")
        if len(t) != 1 or t.lower() not in "0123456789abcdef":
            raise ValueError(f"bad R_2 hex digit {text!r}")
        return RingElement(2, int(t, 16))
    if notation == "generic":
        if t == "0":
            return RingElement(k, 0)
        word = 0
        for token in t.split("+"):
            token = token.strip()
            if token == "1":
                idxs = []
            else:
                idxs = _MONOMIAL_RE.findall(token)
                if not idxs or "".join(f"u{i}" for i in idxs) != token:
                    raise ValueError(f"bad monomial {token!r}")
            word ^= monomial(k, map(int, idxs)).coeffs  # F2 sum of monomials
        return RingElement(k, word)
    raise ValueError(f"unknown notation {notation!r}")


def format_element(e: RingElement, notation: str | None = None) -> str:
    notation = notation or default_notation(e.k)
    if notation == "r1":
        if e.k != 1:
            raise ValueError("r1 symbols only encode R_1")
        return _R1_FORMAT[e.coeffs]
    if notation == "hex":
        if e.k != 2:
            raise ValueError("hex digits only encode R_2")
        return format(e.coeffs, "x")
    if notation == "generic":
        if e.coeffs == 0:
            return "0"
        parts = []
        for mask in range(1 << e.k):
            if (e.coeffs >> mask) & 1:
                if mask == 0:
                    parts.append("1")
                else:
                    parts.append("".join(f"u{i + 1}" for i in range(e.k) if (mask >> i) & 1))
        return "+".join(parts)
    raise ValueError(f"unknown notation {notation!r}")
