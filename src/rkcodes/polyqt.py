"""Polynomials over R_k modulo x^m - lambda, twisted shifts, twistulant matrices.

The twist unit lambda always satisfies lambda^2 = 1 (every unit of R_k is
its own inverse), so lambda-powers reduce to "lambda for odd exponents, 1
for even" and the twisted shift T_lambda has order 2m on vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from rkcodes.ring import RingElement, default_notation, format_element, parse_element, zero

RingVec = tuple[RingElement, ...]


def shift(vec: Sequence[RingElement], lam: RingElement) -> RingVec:
    """Twisted shift T_lambda: (a_0,...,a_{n-1}) -> (lam*a_{n-1}, a_0,...,a_{n-2})."""
    if not lam.is_unit:
        raise ValueError("shift twist must be a unit")
    return (lam * vec[-1],) + tuple(vec[:-1])


def poly_degree(coeffs: Sequence[RingElement]) -> int:
    """Largest index with a nonzero coefficient; -1 for the zero polynomial."""
    for i in range(len(coeffs) - 1, -1, -1):
        if coeffs[i]:
            return i
    return -1


def is_monic(coeffs: Sequence[RingElement]) -> bool:
    d = poly_degree(coeffs)
    return d >= 0 and coeffs[d].coeffs == 1


def poly_divmod(
    f: Sequence[RingElement], g: Sequence[RingElement]
) -> tuple[list[RingElement], list[RingElement]]:
    """Divide f by monic g in R_k[x] (no modulus): f = q*g + r, deg r < deg g."""
    if not is_monic(g):
        raise ValueError("division is only supported by monic divisors")
    k = g[0].k
    dg = poly_degree(g)
    rem = list(f) if f else [zero(k)]
    q = [zero(k)] * max(len(rem) - dg, 1)
    for pos in range(len(rem) - 1, dg - 1, -1):
        c = rem[pos]
        if not c:
            continue
        q[pos - dg] = c
        for j in range(dg + 1):
            rem[pos - dg + j] += c * g[j]
    del rem[dg:]
    if not rem:
        rem = [zero(k)]
    return q, rem


@dataclass(frozen=True)
class Polynomial:
    """Residue representative in R_k[x] / (x^m - lambda); len(coeffs) == m."""

    coeffs: RingVec
    lam: RingElement

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("a residue representative needs at least one coefficient")
        if not self.lam.is_unit:
            raise ValueError("modulus twist must be a unit")
        if any(c.k != self.lam.k for c in self.coeffs):
            raise ValueError("coefficients and twist live in different rings")

    @property
    def m(self) -> int:
        return len(self.coeffs)

    @property
    def k(self) -> int:
        return self.lam.k

    def _same_modulus(self, other: "Polynomial") -> None:
        if self.m != other.m or self.lam != other.lam:
            raise ValueError("modulus mismatch")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._same_modulus(other)
        return Polynomial(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)), self.lam)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._same_modulus(other)
        m = self.m
        out = [zero(self.k) for _ in range(m)]
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if not b:
                    continue
                prod = a * b
                t = i + j
                if t < m:
                    out[t] += prod
                else:
                    out[t - m] += self.lam * prod  # x^m = lambda
        return Polynomial(tuple(out), self.lam)

    def __bool__(self) -> bool:
        return poly_degree(self.coeffs) >= 0


def grade_scaled(vec: Sequence[RingElement], lam: RingElement, ell: int) -> RingVec:
    """Scale coordinate j by lam^(j // ell): the coefficient-substitution map."""
    return tuple(e if (j // ell) % 2 == 0 else lam * e for j, e in enumerate(vec))


def lambda_substitute(f: Polynomial, lam: RingElement) -> Polynomial:
    """Ring isomorphism f(x) -> f(lam*x), valid only for odd coindex.

    Scales coefficient i by lam^i (= lam for odd i) and multiplies the
    modulus twist by lam, so it toggles between x^m - 1 and x^m - lambda.
    """
    if not lam.is_unit:
        raise ValueError("substitution unit must be a unit")
    if lam.k != f.k:
        raise ValueError("substitution unit from the wrong ring")
    if f.m % 2 == 0:
        raise ValueError("substitution is an isomorphism only for odd coindex")
    return Polynomial(grade_scaled(f.coeffs, lam, 1), lam * f.lam)


def twistulant(first_row: Sequence[RingElement], lam: RingElement) -> tuple[RingVec, ...]:
    """m x m matrix whose rows are the successive twisted shifts of first_row."""
    if not lam.is_unit:
        raise ValueError("twist must be a unit")
    rows = [tuple(first_row)]
    for _ in range(len(first_row) - 1):
        rows.append(shift(rows[-1], lam))
    return tuple(rows)


def parse_block(text: str, k: int, notation: str | None = None) -> RingVec:
    """One generator block: digit string for r1/hex, comma-separated for generic."""
    notation = notation or default_notation(k)
    t = text.strip()
    tokens = t.split(",") if notation == "generic" else list(t)
    if not tokens:
        raise ValueError("empty generator block")
    return tuple(parse_element(tok, k, notation) for tok in tokens)


def format_block(block: Sequence[RingElement], notation: str | None = None) -> str:
    if not block:
        raise ValueError("empty generator block")
    sep = "," if (notation or default_notation(block[0].k)) == "generic" else ""
    return sep.join(format_element(e, notation) for e in block)


def parse_generator(text: str, k: int, notation: str | None = None) -> tuple[RingVec, ...]:
    """A generator tuple like "0u|0u|uu" (surrounding parentheses optional)."""
    t = text.strip()
    if t.startswith("(") and t.endswith(")"):
        t = t[1:-1]
    blocks = t.split("|")
    return tuple(parse_block(b, k, notation) for b in blocks)


def format_generator(blocks: Sequence[Sequence[RingElement]], notation: str | None = None) -> str:
    return "|".join(format_block(b, notation) for b in blocks)
