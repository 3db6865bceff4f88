"""The packed byte-table weigher and the reductions of weight blocks against per-word walks.

gf2.packed_weights weighs a block of words with a few whole-block int and
bytes operations, and gf2.weight_counts, weight_halves and least_weight
reduce its blocks (bytes, or arrays past one byte) and the ring side's
lists past K_MAX.  Their oracle is the plain walk: every word of the span,
one byte at a time through the same table.  The table the ring side uses,
codes._weight_table, is pinned, and the ring-side enumerator is checked
against the Gray image's, which is weighed by int.bit_count and so shares
no counting code with it.
"""

from __future__ import annotations

import hashlib
import json
import random
import tracemalloc
from array import array
from collections import Counter
from itertools import chain

import pytest

from rkcodes import codes as codes_module
from rkcodes.analysis import bound_check
from rkcodes.codes import (
    QTCode,
    _weight_table,
    binary_image,
    code_span,
    hom_minima,
    hom_weight_enumerator,
)
from rkcodes.gf2 import (
    LOW_ROWS,
    F2Span,
    least_weight,
    packed_weights,
    span_blocks,
    span_iter,
    weight_counts,
    weight_halves,
)
from rkcodes.ring import RingElement


def walked_weights(basis, table: bytes, nbytes: int, start: int) -> Counter:
    """Weight -> count over start ^ span(basis), each word weighed byte by byte."""
    return Counter(
        sum(table[b] for b in (start ^ word).to_bytes(nbytes, "little")) for word in span_iter(basis)
    )


def reduced(basis, table: bytes, nbytes: int, start: int) -> tuple[Counter, int]:
    """weight_counts and least_weight of the blocks of packed_weights, top the heaviest word."""
    top = nbytes * max(table)
    counts = weight_counts(packed_weights(basis, table, nbytes, start), top)
    return counts, least_weight(packed_weights(basis, table, nbytes, start), top)


def least_nonzero(walked: Counter, top: int) -> int:
    """What least_weight reads: these random tables weigh some nonzero bytes 0, and
    least_weight skips weight 0 itself, not only the zero word; top when no weight is left."""
    return min((w for w in walked if w), default=top)


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
                least = least_nonzero(walked, nbytes * max(table))
                assert reduced(basis, table, nbytes, begin) == (walked, least), (rank, top, begin)


def block_weights(basis, table: bytes, nbytes: int, start: int) -> list[list[int]]:
    """Each block of span_blocks, each word weighed byte by byte."""
    return [
        [sum(table[b] for b in word.to_bytes(nbytes, "little")) for word in block]
        for block in span_blocks(basis, start)
    ]


@pytest.mark.parametrize("top, lane", [(8, 1), (255, 2)])
def test_packed_weights_are_one_weight_per_word_in_span_blocks_order(top, lane):
    rng = random.Random(top)
    basis, table, start = random_case(rng, LOW_ROWS + 2, 4, top)
    blocks = list(packed_weights(basis, table, 4, start))
    assert [list(block) for block in blocks] == block_weights(basis, table, 4, start)
    assert len(blocks) == 4 and all(len(block) == 1 << LOW_ROWS for block in blocks)
    if lane == 1:  # 4 * 8 = 32: one byte per word
        assert all(isinstance(block, bytes) for block in blocks)
    else:  # 4 * max(table) past 255: one 2-byte int per word
        assert 4 * max(table) > 255
        assert all(isinstance(block, array) and block.itemsize == 2 for block in blocks)


def table_reaching(rng: random.Random, top: int, nbytes: int) -> tuple[list[int], bytes]:
    """A basis of LOW_ROWS + 2 rows holding the word of nbytes 0xff bytes, and a table with
    entries up to top whose entry 0xff is top: that word weighs nbytes * top, the most."""
    span = F2Span([(1 << 8 * nbytes) - 1])
    while span.rank < LOW_ROWS + 2:
        span.add(rng.getrandbits(8 * nbytes))
    table = bytearray(rng.randint(0, top) for _ in range(256))
    table[0xFF] = top
    return list(span.basis()), bytes(table)


@pytest.mark.parametrize("nbytes, top", [(5, 51), (3, 85), (8, 32), (4, 64)])
def test_packed_weights_at_the_edge_of_one_byte(nbytes, top):
    # nbytes * top is 255 (one byte per word) or 256 (two bytes per word)
    rng = random.Random(nbytes * top)
    basis, table = table_reaching(rng, top, nbytes)
    for start in (0, rng.getrandbits(8 * nbytes)):
        walked = walked_weights(basis, table, nbytes, start)
        if not start:  # the span holds the heaviest word
            assert max(walked) == nbytes * top
        assert reduced(basis, table, nbytes, start) == (walked, least_nonzero(walked, nbytes * top))
        blocks = list(packed_weights(basis, table, nbytes, start))
        assert [list(block) for block in blocks] == block_weights(basis, table, nbytes, start)
        assert all(isinstance(block, bytes) == (nbytes * top == 255) for block in blocks)


@pytest.mark.parametrize("nbytes, top", [(3, 8), (12, 8), (2, 255)])
def test_weight_halves_cuts_the_walk_of_one_block(nbytes, top):
    rng = random.Random(nbytes + top)
    for rank in (0, 1, 5, LOW_ROWS):
        basis, table, _ = random_case(rng, rank, nbytes, top)
        (weights,) = block_weights(basis, table, nbytes, 0)
        for cut in sorted({0, 1, len(weights) // 3, len(weights) - 1, len(weights)}):
            block = next(packed_weights(basis, table, nbytes))
            first, rest = weight_halves(block, nbytes * max(table), cut)
            assert first == Counter(weights[:cut]) and rest == Counter(weights[cut:]), (rank, cut)


@pytest.mark.parametrize("kind", ["bytes", "array", "list"])
def test_reductions_read_every_kind_of_block(kind):
    # the same weights as bytes (packed_weights up to 255), 2-byte ints past it, or lists (past
    # K_MAX); a few distinct values per block, zeros included, the least ones in later blocks
    rng = random.Random(len(kind))
    top = 255 if kind == "bytes" else 600
    weights = [[rng.choice((0, 9 - i, 40, 41, 200, top)) for _ in range(1 << LOW_ROWS)]
               for i in range(3)]
    make = {"bytes": bytes, "array": lambda ws: array("H", ws), "list": list}[kind]
    blocks = [make(ws) for ws in weights]
    every = Counter(chain(*weights))
    assert weight_counts(blocks, top) == every
    assert least_weight(blocks, top) == min(w for w in every if w) == 7
    assert least_weight(blocks[:1], top) == 9
    assert least_weight([make([0] * 8)], top) == top  # no nonzero weight: top
    for cut in (0, 1, 300, 1 << LOW_ROWS):
        first, rest = weight_halves(blocks[1], top, cut)
        assert (first, rest) == (Counter(weights[1][:cut]), Counter(weights[1][cut:])), cut


# sha256 of _weight_table(k), recorded from its build by character-table popcounts
PINNED_WEIGHT_TABLES = {
    1: "2a464c248c70f52f0818a03ebcad33242463185234fe87dc970407f7d4bf2063",
    2: "361279b40d40b088e165f24fa196cdee0e452fdb19720f8cd6fb98258cb8c240",
    3: "942d992f7cf3c7cc8563ad02e522d25f9ac880a9258edbef928de8752041d80c",
}


@pytest.mark.parametrize("k", [1, 2, 3])
def test_weight_table_pinned(k):
    assert hashlib.sha256(_weight_table(k)).hexdigest() == PINNED_WEIGHT_TABLES[k]


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


def ring_length_80_code(rng: random.Random) -> QTCode:
    """A code over R_2 of ring length 80 (ell = 20, m = 4) whose blocks are all multiples of
    1 + x, one generator on {0, u1u2} and one on all of R_2: F2 rank 15, past one block."""
    def generator(alphabet) -> str:
        blocks = []
        for _ in range(20):
            a = [rng.choice(alphabet) for _ in range(4)]
            blocks.append("".join(f"{a[i] ^ a[i - 1]:x}" for i in range(4)))  # (1 + x) * a
        return "|".join(blocks)

    return QTCode.from_strings(2, [generator((0, 8)), generator(range(16))])


def test_ring_length_80_over_r2_above_one_block():
    # 80 coordinates weigh up to 160 gamma: 161 possible weights, one byte per word
    code = ring_length_80_code(random.Random(80))
    span = code_span(code)
    assert span.n == 80 and span.rank > LOW_ROWS + 2
    coordinate = [RingElement(2, c).hom_weight() for c in range(16)]
    residue = sum(1 << 4 * i for i in range(80))  # bit u_empty of each coordinate
    inside, outside = Counter(), Counter()
    for word in span_iter(span.basis):
        weight = sum(coordinate[word >> 4 * i & 15] for i in range(80))
        (outside if word & residue else inside)[weight] += 1
    codes_module.last_code.reset()
    assert hom_weight_enumerator(code).pairs() == tuple(sorted((inside + outside).items()))
    _, d_kernel, d_nonkernel = hom_minima(2, 80, span.basis)
    assert (d_kernel, d_nonkernel) == (min(w for w in inside if w), min(outside))


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


def multi_block_codes() -> list[QTCode]:
    """Codes whose spans pass one block: three README codes over R_2, the 130-coordinate
    R_1 code of test_hom_weight_enumerator_past_one_byte_of_weight, and 20 random
    [80,16..18] codes over R_2 (ell = 2, m = 5) in draw order."""
    named = [QTCode.from_strings(2, gens.split(","))
             for gens in ("010b8|4550c", "f7b77|e90d3", "ea6e2|8c60c,e2cc0|ae068")]
    rng = random.Random(130)
    named.append(QTCode.from_strings(1, ["|".join(rng.choice("01u3") for _ in range(130))
                                         for _ in range(6)]))
    rng = random.Random(80)
    wanted, drawn = {16: 6, 17: 7, 18: 7}, []
    while any(wanted.values()):
        blocks = ("".join(rng.choice("0123456789abcdef") for _ in range(5)) for _ in range(2))
        code = QTCode.from_strings(2, ["|".join(blocks)])
        rank = code_span(code).rank
        if wanted.get(rank):
            wanted[rank] -= 1
            drawn.append(code)
    return named + drawn


# sha256 of the JSON of [hom_weight_enumerator pairs, bound_check warm, bound_check cold]
# for each of multi_block_codes(), recorded before the kernel's one-weight-per-word form
PINNED_MULTI_BLOCK = [
    "b22e5e5811447eddd9f7b4b770b559d3aad86765e96bc4d0bd6203b91329f87c",
    "3aba6d3c3e7b340faf64b60fce3a293799ea1a013daef4265d5c62b58bb78a4b",
    "310f6fcf13fb7b0bbc3f2d092f0ec21c37b5ee1ad9e3e4f9da8fd73af01190f2",
    "9eae567af356a724d5f0e404d1f5b47fa426934b061173835503556c8d64ccf4",
    "df37b8971f3ddbe93865c7ac57f4618b238d474c14129a17e66e263511fcaa80",
    "4ee6bcf43a14ea1acefa301b2ebb187c344c8b6e1fcdd6ba946c46d04a1c93e3",
    "9b3f5ad94487666b185514a12e24536a7445fe5b43afb91976817d5f34084b12",
    "9127b7cc3e6192a8468c7959e23c8e535ee20bc1a977c5f48fbeafea2da9caa8",
    "7dc4299ac445aa273fa9cf1335f9c43299f27d6f246873c4f89114154e8292de",
    "768e471e41b2aea95a134f79830eba9ef7bbda5dfbefe3d416c39fb1a2db581e",
    "ceb165b1b6f9ea84c6c4be9e1a67fa44456c5348caf414ef868c15ce939c30d4",
    "4c30abc6136340a4c8d461f1cbc9b5fabade7dc16a56439dc2c5b878f6e473f6",
    "43bd2fa8b184a9643dcb1d32f159c8c5b7e32cbad679de3469d00741f30af06e",
    "4782cc4e192238ca9b34629b5cd441cb8636ee6881e57dd04308ebfc94d44f21",
    "cff70f6aeb414fe76d58b2143fd0c34e804fec1f23cc96848b43b71e5256408a",
    "6b2424d211215abcca8dcdaa88b5946cd3236e308f4688c95f44a9de1f822826",
    "6a7e2c8f9fd6fa5176990e675f70aa3817e947f245156ddf57e30b369ff28a68",
    "d5cbfa0b265713903321afaa3f60e61e10caceeea2692b9586ed1cb09db0cc73",
    "b410b1692e49b9ee01e51db2c7720c3ee1de1d543ddd16a22497f0da9ea57ff1",
    "bd5a49a2fabc92a237db0345dbef3bf3045c1a70433636236321fa677fe066e1",
    "c3a537cc55dd425e874ec098e092abee2dfbe19c0c03bedd4596619fda5f7aad",
    "a259f96994f124cde2ab564e998ceed4c76fed9268beac885553ae4601f8010b",
    "fc86f4ac2f1affdd77315e20dcf778779fb1cfe8247c9b3b270a3ab556fbfc91",
    "75bdf6410ddcdd2134982ea39a9e223cf7a42ed87880d778be5cf8ffc7f78fa8",
]


def test_multi_block_outputs_pinned():
    codes = multi_block_codes()
    assert all(code_span(code).rank > LOW_ROWS for code in codes)
    digests = []
    for code in codes:
        codes_module.last_code.reset()
        hom = hom_weight_enumerator(code).pairs()
        warm = bound_check(code)
        codes_module.last_code.reset()
        cold = bound_check(code)
        blob = json.dumps([hom, warm, cold], sort_keys=True).encode()
        digests.append(hashlib.sha256(blob).hexdigest())
    assert digests == PINNED_MULTI_BLOCK
