"""Information-set minimum weight and coset walks against the plain walk.

gf2.span_min_weight, which weighs every word of the span, is the oracle;
equality must be exact.  Codes whose columns repeat from a small pool have
short information sets (the rows restricted to the columns left after a few
sets lose rank), which is where an unsound lower bound shows: one that
counted such a short set without weighing its smaller combinations gave
d = 4 for the pinned length-15 code below, whose d is 3.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from rkcodes import gf2
from rkcodes.analysis import build_row_code, load_table_rows
from rkcodes.codes import QTCode, binary_image, code_span
from rkcodes.gf2 import (
    LOW_ROWS,
    F2Span,
    _systematic,
    info_set_min_weight,
    min_weight,
    popcounts,
    span_counts,
    span_iter,
    span_min_weight,
)
from rkcodes.ring import RingElement, units

CASES = {rank: 1800 if rank <= LOW_ROWS else 750 for rank in range(1, 15)}  # 21,000 codes


def pooled_basis(rng: random.Random, rank: int) -> tuple[int, ...]:
    """Basis of a random code of the given rank whose columns come from a pool of rank..rank+3."""
    while True:
        length = rng.randint(rank, 40)
        pool = [rng.getrandbits(rank) for _ in range(rng.randint(rank, rank + 3))]
        columns = [rng.choice(pool) for _ in range(length)]
        rows = [sum((col >> j & 1) << c for c, col in enumerate(columns)) for j in range(rank)]
        basis = F2Span(rows).basis()
        if len(basis) == rank:
            return basis


def test_info_set_min_weight_pinned_short_information_set():
    basis = F2Span((24644, 22608, 12384, 26752, 28928, 14848)).basis()
    assert max(basis).bit_length() <= 15
    assert info_set_min_weight(basis) == span_min_weight(basis) == 3


@pytest.mark.parametrize("rank", sorted(CASES))
def test_info_set_min_weight_matches_walk_on_pooled_columns(rank):
    rng = random.Random(rank)
    for _ in range(CASES[rank]):
        basis = pooled_basis(rng, rank)
        assert info_set_min_weight(basis) == span_min_weight(basis), basis


def test_info_set_min_weight_rejects_the_zero_span():
    with pytest.raises(ValueError):
        info_set_min_weight(())


def random_qt_codes(rng: random.Random, k: int, count: int, ranks: range) -> list[QTCode]:
    """Random one- or two-generator QT codes over R_k whose spans have a rank in ranks."""
    max_n = {1: 10, 2: 5, 3: 3}[k]
    out = []
    while len(out) < count:
        ell = rng.randint(1, max_n)
        m = rng.randint(1, max_n // ell)
        gens = tuple(
            tuple(
                tuple(RingElement(k, rng.randrange(1 << (1 << k))) for _ in range(m))
                for _ in range(ell)
            )
            for _ in range(rng.choice((1, 2)))
        )
        code = QTCode(rng.choice(list(units(k))), ell, m, gens)
        if code_span(code).rank in ranks:
            out.append(code)
    return out


@pytest.mark.parametrize("k", [1, 2, 3])
def test_gray_image_min_distance_matches_walk(k):
    codes = random_qt_codes(random.Random(100 + k), k, 12, range(LOW_ROWS + 1, 21))
    seen = set()
    for code in codes:
        img = binary_image(code)
        d = span_min_weight(img.rows)
        assert info_set_min_weight(img.rows) == d, code
        assert img.min_distance() == d, code
        seen.add(img.rank)
    assert len(seen) >= 3  # several ranks past one block


def set_count(basis) -> int:
    """t: the number of disjoint information sets info_set_min_weight takes."""
    t, columns = 0, (1 << max(basis).bit_length()) - 1
    while (found := _systematic(basis, columns)) is not None:
        t, columns = t + 1, columns & ~found[1]
    return t


def counted_walks(monkeypatch) -> list[int]:
    """Ranks of the spans info_set_min_weight walks from now on, in call order."""
    walks: list[int] = []
    walk = gf2.span_min_weight

    def counted(basis, *args):
        walks.append(len(basis))
        return walk(basis, *args)

    monkeypatch.setattr(gf2, "span_min_weight", counted)
    return walks


def test_info_set_min_weight_matches_walk_at_ranks_15_to_20(monkeypatch):
    # ranks 15..20: pooled codes, random codes of length 2-3 times their rank,
    # and Gray images at k = 1..3
    rng = random.Random(1520)
    bases = [pooled_basis(rng, rank) for rank in range(15, 21) for _ in range(2)]
    for rank in range(15, 21):
        for _ in range(3):
            length = rng.randint(2 * rank, 3 * rank)
            span = F2Span()
            while span.rank < rank:
                span.add(rng.getrandbits(length))
            bases.append(span.basis())
    for k in (1, 2, 3):
        codes = random_qt_codes(random.Random(200 + k), k, 4, range(15, 21))
        bases += [binary_image(code).rows for code in codes]
    distances = [span_min_weight(basis) for basis in bases]
    walks = counted_walks(monkeypatch)
    inside_a_level = 0
    for basis, d in zip(bases, distances):
        walked = len(walks)
        assert info_set_min_weight(basis) == d, basis
        t = set_count(basis)
        # a search stops once t*w + j >= d, after j < t bases have weighed level w
        inside_a_level += len(walks) == walked and d % t != 0 and d > 2 * t
    assert inside_a_level >= 8
    assert len(walks) <= len(bases) // 4


# An [80,17,24] image over R_2 of the benchmark's enumerate shape (ell=2, m=5)
# with 4 information sets; its level-1 weight is already 24, and levels 2..5
# weigh 4 * (136 + 680 + 2380 + 6188) combinations instead of 2^17 words.
PINNED_80_17_24 = "a7728|92452"


def test_info_sets_reach_d_of_an_80_17_24_image_without_a_walk(monkeypatch):
    img = binary_image(QTCode.from_strings(2, [PINNED_80_17_24]))
    assert (img.length, img.rank, set_count(img.rows)) == (80, 17, 4)
    assert span_min_weight(img.rows) == 24
    walks = counted_walks(monkeypatch)
    assert info_set_min_weight(img.rows) == 24
    assert walks == []


@pytest.mark.parametrize("generator", ["uuuu11|uuu103|u1u311", "uuu1013|uu01033|uu11101"])
def test_rank_11_fixture_images_still_walk(monkeypatch, generator):
    # 2^11 words walk cheaper than the passes their 3 sets would need
    (row,) = [row for row in load_table_rows() if row.generator == generator]
    img = binary_image(build_row_code(row))
    assert img.rank == 11 and set_count(img.rows) == 3
    walks = counted_walks(monkeypatch)
    assert info_set_min_weight(img.rows) == row.d
    assert walks == [11]


@pytest.mark.parametrize("rank", [0, 1, LOW_ROWS, LOW_ROWS + 2])
def test_min_weight_and_counts_on_a_coset(rank):
    rng = random.Random(rank)
    basis = F2Span(rng.getrandbits(30) for _ in range(rank + 1)).basis()
    start, rows = basis[-1], basis[:-1]
    coset = [start ^ w for w in span_iter(rows)]
    assert span_counts(rows, popcounts, start) == Counter(map(int.bit_count, coset))
    assert span_min_weight(rows, popcounts, start) == min(map(int.bit_count, coset))
    triple = lambda words: (3 * w.bit_count() for w in words)
    assert span_min_weight(rows, triple, start) == 3 * min(map(int.bit_count, coset))
    if rows:
        assert min_weight(rows) == min(w.bit_count() for w in span_iter(rows) if w)
