"""Small GF(2) linear algebra over int bitsets (bit i = coordinate i)."""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from functools import lru_cache, reduce
from itertools import chain, islice
from math import comb
from operator import or_
from typing import Iterable, Iterator, Sequence

LOW_ROWS = 10  # span_blocks blocks hold 2^LOW_ROWS words


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


def span_blocks(basis: Sequence[int], start: int = 0) -> Iterable[Iterable[int]]:
    """The words start ^ span(basis), in blocks of 2^LOW_ROWS words.

    The first block is a list: start ^ the span of the first LOW_ROWS rows,
    start first.  Each other combination h of the remaining rows gives
    map(h.__xor__, first block), so memory is one block whatever the rank,
    and map(int.bit_count, block) weighs a block in one Python iteration
    (span_counts, span_min_weight).  A span of one block comes back as
    (block,), so its walk resumes no generator.
    """
    block = [start]
    for row in basis[:LOW_ROWS]:
        block += [row ^ x for x in block]
    if len(basis) <= LOW_ROWS:
        return (block,)
    high = span_iter(basis[LOW_ROWS:])
    next(high)  # h = 0: the first block
    return chain((block,), (map(h.__xor__, block) for h in high))


def span_counts(basis: Sequence[int]) -> Counter:
    """Hamming weight -> count over the 2^len(basis) XOR-combinations of basis rows."""
    counts: Counter = Counter()
    for block in span_blocks(basis):
        counts.update(map(int.bit_count, block))
    return counts


def span_min_weight(basis: Sequence[int]) -> int:
    """Smallest Hamming weight of a nonzero word in the span of independent rows.

    The least weight over the blocks of span_blocks; the zero word, the
    first of the first block, is skipped.
    """
    if not basis:
        raise ValueError("the zero span has no nonzero word")
    blocks = iter(span_blocks(basis))
    best = min(map(int.bit_count, islice(next(blocks), 1, None)))
    for block in blocks:
        best = min(best, min(map(int.bit_count, block)))
    return best


@lru_cache(maxsize=256)
def _lane(table: bytes, nbytes: int) -> tuple[int, str]:
    """(c, typecode): the first of B, H, I, Q (c bytes) to hold nbytes * max(table)."""
    code = next(t for t in "BHIQ" if nbytes * max(table) >> 8 * array(t).itemsize == 0)
    return array(code).itemsize, code


def packed_weights(basis: Sequence[int], table: bytes, nbytes: int, start: int = 0) -> Iterator:
    """The weight of each word of start ^ span(basis), a block of span_blocks at a time.

    A word is nbytes bytes and weighs the sum of table[b] over its bytes b.
    A block is one packed int, word j at byte j*nbytes: the first built by
    doubling, each other its XOR with h * repunit, h a combination of the
    other rows (span_iter).  It goes to bytes and through table, and the
    ints of its nbytes byte columns, each byte widened to c bytes (_lane),
    are summed once.  So a block comes back as bytes, one weight per word
    in span_blocks' order, or past one byte as an array of c-byte ints.
    """
    c, code = _lane(table, nbytes)
    packed, rep, words = start, 1, 1
    for row in basis[:LOW_ROWS]:
        packed |= (packed ^ row * rep) << words * nbytes * 8
        rep |= rep << words * nbytes * 8
        words *= 2
    wide = bytearray(words * c)
    high = [row * rep for row in basis[LOW_ROWS:]]
    for block in (packed ^ h for h in span_iter(high)) if high else (packed,):
        weights = block.to_bytes(words * nbytes, "little").translate(table)
        total = 0
        for i in range(nbytes):
            if c > 1:
                wide[::c] = weights[i::nbytes]
            total += int.from_bytes(wide if c > 1 else weights[i::nbytes], "little")
        lanes = total.to_bytes(words * c, "little")
        if c > 1:
            lanes = array(code, lanes)
            if sys.byteorder == "big":
                lanes.byteswap()
        yield lanes


# _ONE_HOT[g] takes weight 8*g + j to the byte 1 << j; _BIT_PLANES[j] is bit j of every byte
_ONE_HOT = [bytes(8 * g) + bytes(1 << j for j in range(8)) + bytes(248 - 8 * g) for g in range(32)]
_BIT_PLANES = [int.from_bytes(bytes([1 << j]) * (1 << LOW_ROWS), "little") for j in range(8)]


def _tally(weights: bytes | array | list, top: int) -> dict[int, int]:
    """Weight -> count over a block of weights at most top, or a slice of one.  In bytes,
    memchr finds the weights present, and each is counted as a popcount of one bit plane of
    the block through _ONE_HOT, as bytes.count branches on each byte and mispredicts."""
    if not isinstance(weights, bytes):
        return Counter(weights)
    present = list(filter(weights.__contains__, range(top + 1)))
    groups = {w >> 3 for w in present}
    hot = {g: int.from_bytes(weights.translate(_ONE_HOT[g]), "little") for g in groups}
    return {w: (hot[w >> 3] & _BIT_PLANES[w & 7]).bit_count() for w in present}


def weight_counts(blocks: Iterable[bytes | array | list], top: int) -> Counter:
    """Weight -> count over blocks of weights at most top: bytes, arrays or lists."""
    counts: Counter = Counter()
    for block in blocks:
        counts.update(_tally(block, top))
    return counts


def weight_halves(block: bytes | array | list, top: int, cut: int) -> tuple[dict, dict]:
    """weight_counts of the first cut weights of one block and of the rest."""
    return _tally(block[:cut], top), _tally(block[cut:], top)


def least_weight(blocks: Iterable[bytes | array | list], top: int) -> int:
    """Least nonzero weight over blocks of weights at most top, or top if none is below it:
    the first weight present below the least so far, found by memchr in bytes.  Weight 0
    is skipped whatever word weighs it; on the ring side only the zero word does."""
    best = top
    for block in blocks:
        present = (block if isinstance(block, bytes) else set(block)).__contains__
        best = next(filter(present, range(1, best)), best)
    return best


def _systematic(basis: Sequence[int], columns: int) -> tuple[list[int], int] | None:
    """(rows, pivots): the span of independent rows, reduced on pivots inside columns.

    Each row has one pivot bit in columns that no other row has.  None when
    the rows restricted to columns have rank below len(basis).
    """
    rows: dict[int, int] = {}  # pivot bit -> row
    for v in basis:
        for p, row in rows.items():
            if v & p:
                v ^= row
        free = v & columns
        if not free:
            return None
        p = free & -free
        for q, row in rows.items():
            if row & p:
                rows[q] = row ^ v
        rows[p] = v
    return list(rows.values()), sum(rows)


class _SubsetXors:
    """XORs of the subsets of rows, grouped by size; a size is made when first asked for.

    The subsets of size s+1 are row i XOR those of size s whose largest row
    index is below i, which makes each exactly once.  Only the newest size
    is kept grouped by largest index.
    """

    def __init__(self, rows: Sequence[int]):
        self._rows = rows
        self._by_last = [[row] for row in rows]
        self._sizes = [[0], list(rows)]

    def __getitem__(self, size: int) -> list[int]:
        while len(self._sizes) <= size:
            below: list[int] = []
            grown = []
            for row, group in zip(self._rows, self._by_last):
                grown.append([row ^ x for x in below])
                below += group
            self._by_last = grown
            self._sizes.append(list(chain.from_iterable(grown)))
        return self._sizes[size]


def self_orthogonal(rows: Sequence[int]) -> bool:
    """True iff every row has even weight and every pair of rows an even AND."""
    return all(
        (rows[i] & rows[j]).bit_count() & 1 == 0
        for i in range(len(rows))
        for j in range(i, len(rows))
    )


def weight_divisor(basis: Sequence[int]) -> int:
    """The largest D in (1, 2, 4) that divides every weight in the span of basis.

    wt(x ^ y) = wt(x) + wt(y) - 2*wt(x & y): even rows span an even code,
    and rows of weight 0 mod 4 with pairwise even ANDs a doubly-even one.
    """
    weights = [row.bit_count() for row in basis]
    if any(w & 1 for w in weights):
        return 1
    return 4 if not any(w & 3 for w in weights) and self_orthogonal(basis) else 2


LEVEL_COST = 256  # measured: a basis's pass over a level beyond its combinations, in walk words


def _greedy_sets(basis: Sequence[int], columns: int) -> list[list[int]]:
    """Bases of the span, each systematic on its own set of pivot columns inside columns.

    Taken greedily, each on the columns no earlier set holds, while those
    number at least len(basis) and the rows keep full rank on them.
    """
    sets = []
    while columns.bit_count() >= len(basis) and (found := _systematic(basis, columns)):
        sets.append(found[0])
        columns &= ~found[1]
    return sets


def _passes_cost(rank: int, t: int, copies: int, best: int, divisor: int) -> int:
    """What the passes over levels 2, 3, ... of t sets of the given copies still need
    to stop below best would cost, in walk words (info_set_min_weight)."""
    passes = range((best - divisor) // copies + 1 - 2 * t)  # pass i: level 2 + i // t
    return sum(comb(rank, 2 + i // t) + LEVEL_COST for i in passes)


def information_sets(
    basis: Sequence[int], parts: Sequence[tuple[int, int]], divisor: int
) -> tuple[list[list[int]], int, int]:
    """(sets, copies, best) for info_set_min_weight, best the least row weight seen;
    sets is [] when the span is to be walked.

    Each candidate (columns, copies), parts in order (most copies first)
    and then (every column, 1), may get its _greedy_sets, and the one with
    the most len(sets) * copies is kept, the first on a tie.  The search
    ends at one that reaches the most sets the columns of the code can
    hold.  A candidate is not built when its columns cannot hold more sets
    than those kept, or when the passes that many would need
    (_passes_cost) cost more than the walk or, once sets are kept, than
    their passes less building its sets (about rank^2 walk words each).
    """
    rank = len(basis)
    support = reduce(or_, basis)
    best = min(map(int.bit_count, basis))  # level 1: each row alone
    sets: list[list[int]] = []
    copies, bar, build = 1, 1 << rank, 0  # bar: the cost to beat; the walk at first
    for columns, times in (*parts, (support, 1)):
        columns &= support
        most = columns.bit_count() // rank
        if most * times <= len(sets) * copies:
            continue
        if _passes_cost(rank, most, times, best, divisor) + most * build > bar:
            continue
        found = _greedy_sets(basis, columns)
        best = min(best, min(map(int.bit_count, chain(*found)), default=best))
        if len(found) * times > len(sets) * copies:
            sets, copies = found, times
            if len(sets) * copies >= support.bit_count() // rank:
                break
            bar, build = _passes_cost(rank, len(sets), copies, best, divisor), rank * rank
    if sets and _passes_cost(rank, len(sets), copies, best, divisor) > 1 << rank:
        sets = []
    return sets, copies, best


def info_set_min_weight(
    basis: Sequence[int], parts: Sequence[tuple[int, int]] = (), divisor: int = 1
) -> int:
    """Smallest Hamming weight of a nonzero word in the span of independent rows.

    Brouwer-Zimmermann information sets.  The span gets t bases, each
    systematic on its own set of pivot columns, the sets disjoint (see
    information_sets).  A word is a combination of some w_j rows of basis
    j and has w_j ones on set j.  Level w of a basis is every combination
    of w of its rows; once all bases have weighed level w - 1 and j of them
    level w, each word not yet seen weighs at least j*(w+1) + (t-j)*w =
    t*w + j.

    parts lists (columns, copies) pairs, most copies first, for a code whose
    coordinate permutations map the columns onto copies - 1 other disjoint
    sets of columns, and the code onto itself (codes.binary_image: the unit
    group of R_k).  A set inside the columns then stands for copies
    disjoint sets whose words of w ones have the weights of its own, so the
    bound is copies * (t*w + j).  With no parts, copies is 1.

    Every weight of the span is a multiple of D, the larger of divisor and
    weight_divisor(basis) (not read when divisor is at least 4), so the
    search stops when copies * (t*w + j), rounded up to a multiple of D,
    reaches the smallest weight seen.

    Level w is weighed without being stored: each basis is split into two
    halves, and the XORs of each half's subsets, grouped by size (at most
    2^ceil(rank/2) words), are XORed pairwise, a-subsets of one half
    against (w-a)-subsets of the other.  A combination costs about what a
    word of the plain walk costs, and each basis's pass over a level about
    LEVEL_COST words more, so when the passes still needed to reach the
    best weight so far would cost more than the 2^rank words of the span,
    the span is walked instead.
    """
    rank = len(basis)
    if not rank:
        raise ValueError("the zero span has no nonzero word")
    if divisor < 4:
        divisor = max(divisor, weight_divisor(basis))  # of best too: stop once above best - D
    sets, copies, best = information_sets(basis, parts, divisor)
    if not sets:
        return span_min_weight(basis)
    t = len(sets)
    half = (rank + 1) // 2
    halves = [(_SubsetXors(rows[:half]), _SubsetXors(rows[half:])) for rows in sets]
    for w in range(2, rank + 1):
        for j, (low, high) in enumerate(halves):
            if copies * (t * w + j) > best - divisor:
                return best
            for a in range(max(0, w - (rank - half)), min(half, w) + 1):
                small, large = sorted((low[a], high[w - a]), key=len)
                for x in small:
                    best = min(best, min(map(int.bit_count, map(x.__xor__, large))))
    return best


def min_weight(
    basis: Sequence[int], parts: Sequence[tuple[int, int]] = (), divisor: int = 1,
    at_least: int = 0,
) -> int:
    """Smallest Hamming weight of a nonzero word in the span of independent rows.

    A basis of one block is walked; a larger one goes by information sets
    (info_set_min_weight, which reads parts and divisor).  The result is
    exact whenever the minimum is at least at_least; otherwise it may be,
    at once, the weight of a basis row below at_least, which is never
    below the minimum.
    """
    if not basis:
        raise ValueError("the zero span has no nonzero word")
    least_row = min(map(int.bit_count, basis))  # level 1: an upper bound on the minimum
    if least_row < at_least:
        return least_row
    if len(basis) <= LOW_ROWS:
        return span_min_weight(basis)
    return info_set_min_weight(basis, parts, divisor)


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
    return int(s[::-1], 2), len(s)
