"""Small GF(2) linear algebra over int bitsets (bit i = coordinate i)."""

from __future__ import annotations

from collections import Counter
from typing import Callable, Iterable, Iterator, Sequence

LOW_ROWS = 10  # span_counts blocks hold 2^LOW_ROWS words


class F2Span:
    """Row space over GF(2), kept as a fully reduced (RREF) basis.

    Pivot of a row is its lowest set bit; rows are back-eliminated so no row
    contains another's pivot.  basis() is therefore a canonical form of the
    row space: two spans are equal iff their bases are equal.  Because of
    that, reducing v touches only the rows whose pivots are set in v itself:
    one AND with the int of all pivot bits finds them.
    """

    def __init__(self, rows: Iterable[int] = ()):
        self._rows: dict[int, int] = {}  # pivot bit (a power of two) -> reduced row
        self._pivots = 0  # OR of all pivot bits
        for r in rows:
            self.add(r)

    def reduce(self, v: int) -> int:
        """Residual of v after elimination against the basis."""
        hit = v & self._pivots
        while hit:
            bit = hit & -hit
            v ^= self._rows[bit]
            hit ^= bit
        return v

    def add(self, v: int) -> bool:
        """Insert v; returns True if the rank grew."""
        v = self.reduce(v)
        if v == 0:
            return False
        pivot = v & -v
        rows = self._rows
        for p, row in rows.items():
            if row & pivot:
                rows[p] = row ^ v
        rows[pivot] = v
        self._pivots |= pivot
        return True

    def __contains__(self, v: int) -> bool:
        return self.reduce(v) == 0

    @property
    def rank(self) -> int:
        return len(self._rows)

    def basis(self) -> tuple[int, ...]:
        """Canonical RREF basis, sorted by pivot position."""
        return tuple(self._rows[p] for p in sorted(self._rows))


def gf2_rank(rows: Iterable[int]) -> int:
    return F2Span(rows).rank


def span_iter(basis: Sequence[int]) -> Iterator[int]:
    """All XOR-combinations of basis rows in Gray-code order, starting at 0.

    Consecutive words differ by exactly one basis row, so callers get
    incremental enumeration for free.
    """
    cur = 0
    yield cur
    for i in range(1, 1 << len(basis)):
        cur ^= basis[(i & -i).bit_length() - 1]
        yield cur


def _low_block(basis: Sequence[int]) -> list[int]:
    """The span of the first LOW_ROWS rows, in span_iter order (0 first)."""
    block = [0]
    for row in basis[:LOW_ROWS]:
        block += [row ^ x for x in block]
    return block


def span_counts(
    basis: Sequence[int], weigh: Callable[[Iterator[int]], Iterable[int]]
) -> Counter:
    """Weight -> count over all 2^len(basis) XOR-combinations of basis rows.

    The span of the first LOW_ROWS rows is built once as a block of ints;
    every combination h of the remaining rows (in span_iter order) then
    contributes the block h ^ block.  weigh receives each block as an
    iterator of words and returns one weight per word, so a weigher built
    from map() over a C-level callable such as int.bit_count costs a few C
    calls per word and one Python iteration per 2^LOW_ROWS words.  Memory
    is one block, whatever the rank.  A basis of at most LOW_ROWS rows is
    one block and is weighed as it stands.
    """
    block = _low_block(basis)
    if len(basis) <= LOW_ROWS:
        return Counter(weigh(iter(block)))
    counts: Counter = Counter()
    for h in span_iter(basis[LOW_ROWS:]):
        counts.update(weigh(map(h.__xor__, block)))
    return counts


def span_min_weight(basis: Sequence[int]) -> int:
    """Smallest Hamming weight of a nonzero word in the span of independent rows.

    Walks the same blocks as span_counts but keeps only each block's
    minimum popcount.  The zero word is the first word of the first block
    and is skipped; with independent rows no other combination is zero.
    """
    if not basis:
        raise ValueError("the zero span has no nonzero word")
    block = _low_block(basis)
    best = min(map(int.bit_count, block[1:]))
    if len(basis) > LOW_ROWS:
        high = span_iter(basis[LOW_ROWS:])
        next(high)  # h = 0: the block itself, done above
        for h in high:
            best = min(best, min(map(int.bit_count, map(h.__xor__, block))))
    return best


def rotate_bits(v: int, s: int, length: int) -> int:
    """Cyclic shift by s positions: new coordinate c+s gets old coordinate c."""
    s %= length
    if s == 0:
        return v
    mask = (1 << length) - 1
    return ((v << s) | (v >> (length - s))) & mask


def bits_to_str(v: int, length: int) -> str:
    """'0'/'1' string, coordinate 0 leftmost."""
    return "".join("1" if (v >> i) & 1 else "0" for i in range(length))


def str_to_bits(s: str) -> tuple[int, int]:
    """Inverse of bits_to_str; returns (value, length)."""
    s = s.strip()
    if not s or any(c not in "01" for c in s):
        raise ValueError(f"bad binary string {s!r}")
    v = 0
    for i, c in enumerate(s):
        if c == "1":
            v |= 1 << i
    return v, len(s)
