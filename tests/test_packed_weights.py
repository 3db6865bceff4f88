"""The packed byte-table weigher against per-word walks and per-element weights.

gf2.packed_weights weighs a block of words with a few whole-block int and
bytes operations.  Its oracle is the plain walk: every word of the span,
one byte at a time through the same table.  The table the ring side uses,
codes._weight_table, is checked against RingElement.hom_weight, and the
ring-side enumerator against the Gray image's, which is weighed by
int.bit_count and so shares no counting code with it.
"""

from __future__ import annotations

import random
import tracemalloc
from collections import Counter

import pytest

from rkcodes import codes as codes_module
from rkcodes.codes import QTCode, _weight_table, binary_image, code_span, hom_weight_enumerator
from rkcodes.gf2 import LOW_ROWS, F2Span, packed_counts, packed_min, packed_weights, span_iter
from rkcodes.ring import RingElement, gamma


def walked_weights(basis, table: bytes, nbytes: int, start: int) -> Counter:
    """Weight -> count over start ^ span(basis), each word weighed byte by byte."""
    return Counter(
        sum(table[b] for b in (start ^ word).to_bytes(nbytes, "little")) for word in span_iter(basis)
    )


def random_case(rng: random.Random, rank: int, nbytes: int, top: int):
    """An independent basis of rank rows of nbytes bytes (fewer if nbytes cannot hold them),
    a table with entries up to top, and a start outside the span (or 0)."""
    span = F2Span()
    while span.rank < min(rank, 8 * nbytes - 1):
        span.add(rng.getrandbits(8 * nbytes))
    start = rng.getrandbits(8 * nbytes)
    if start in span:
        start = 0
    return span.basis(), bytes(rng.randint(0, top) for _ in range(256)), start


@pytest.mark.parametrize("nbytes", [1, 2, 3, 5, 8, 12])
def test_packed_weights_match_the_walk(nbytes):
    rng = random.Random(nbytes)
    for rank in (0, 1, 2, 7, LOW_ROWS, LOW_ROWS + 1, 14):
        for top in (2, 8, 255):  # entries up to 255: weights past one byte's lane
            basis, table, start = random_case(rng, rank, nbytes, top)
            for begin in {0, start}:
                walked = walked_weights(basis, table, nbytes, begin)
                counts = packed_counts(basis, table, nbytes, begin)
                assert len(counts) == nbytes * max(table) + 1
                assert {w: c for w, c in enumerate(counts) if c} == walked, (rank, top, begin)
                assert packed_min(basis, table, nbytes, begin) == min(walked)


def test_packed_weights_are_one_lane_per_word_block_by_block():
    rng = random.Random(3)
    basis, table, start = random_case(rng, LOW_ROWS + 2, 4, 255)
    assert 32 <= max(table)  # weights from 128 to 1020: two bytes of 7 bits per lane
    blocks = list(packed_weights(basis, table, 4, start))
    assert len(blocks) == 4 and all(len(block) == 2 << LOW_ROWS for block in blocks)
    for block in blocks:
        assert min(block[::2]) >= 0x80 and max(block[1::2]) < 0x80


@pytest.mark.parametrize("k", [1, 2, 3])
def test_weight_table_matches_ring_weights_on_every_byte(k):
    w = 1 << k
    for b in range(256):
        coords = [RingElement(k, b >> c & (1 << w) - 1) for c in range(0, 8, w)]
        assert _weight_table(k)[b] * gamma(k) == sum(e.hom_weight() for e in coords), (k, b)


def test_hom_weight_enumerator_memory_is_one_block():
    # rank 20 inside the maximal ideal: the residue kernel is the whole span
    code = QTCode.from_strings(2, ["ea6e2|8c60c", "e2cc0|ae068"])
    assert code_span(code).rank == 20
    codes_module.last_code.reset()
    tracemalloc.start()
    try:
        hom = hom_weight_enumerator(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hom.total() == 1 << 20
    assert peak < 256 << 10  # 2^20 words: one byte each, joined, would be 1 MB


@pytest.mark.parametrize("k, generator", [(1, "0u1u|u13u|3u01"), (2, "2461"), (2, "a7728|92452")])
def test_a_wrong_byte_table_shows_against_the_image_enumerator(k, generator, monkeypatch):
    # the ring side and the Gray image share no weighing code, so each checks the other
    code = QTCode.from_strings(k, [generator])
    image = binary_image(code).weight_enumerator()
    codes_module.last_code.reset()
    assert hom_weight_enumerator(code) == image
    table = bytearray(_weight_table(k))
    table[0x11] += 1  # one byte of two nonzero coordinates weighs gamma too much
    monkeypatch.setattr(codes_module, "_weight_table", lambda k: bytes(table))
    codes_module.last_code.reset()
    assert hom_weight_enumerator(code) != image
    codes_module.last_code.reset()
