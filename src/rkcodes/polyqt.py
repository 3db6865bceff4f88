"""Twisted shifts, twistulant matrices and generator text over R_k.

A block (a_0, ..., a_{m-1}) stands for a_0 + a_1 x + ... + a_{m-1} x^(m-1)
in R_k[x] / (x^m - lambda), and the twisted shift T_lambda is the product
by x there.  The twist unit lambda always satisfies lambda^2 = 1 (every
unit of R_k is its own inverse), so T_lambda has order 2m on vectors.
Codes do their arithmetic in that ring on flat words (codes._twisted_shifts);
these functions serve the display rows and the generator text.
"""

from __future__ import annotations

from typing import Sequence

from rkcodes.ring import RingElement, default_notation, format_element, parse_element

RingVec = tuple[RingElement, ...]


def shift(vec: Sequence[RingElement], lam: RingElement) -> RingVec:
    """Twisted shift T_lambda: (a_0,...,a_{n-1}) -> (lam*a_{n-1}, a_0,...,a_{n-2})."""
    if not lam.is_unit:
        raise ValueError("shift twist must be a unit")
    if not vec:
        raise ValueError("shift of an empty vector")
    return (lam * vec[-1],) + tuple(vec[:-1])


def twistulant(first_row: Sequence[RingElement], lam: RingElement) -> tuple[RingVec, ...]:
    """m x m matrix whose rows are the successive twisted shifts of first_row."""
    if not lam.is_unit:
        raise ValueError("twist must be a unit")
    if not first_row:
        raise ValueError("twistulant of an empty first row")
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
