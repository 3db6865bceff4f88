"""Byte-table maps, pivot-mask elimination, min-only distance, search's per-block
parts and the Gray tables against the code they replaced.

Each oracle below is the implementation its fast path replaced: the
per-coordinate loop behind binary images, F2Span with a loop over every
basis row, the minimum nonzero key of a full span_counts, the orbit check
on formatted generator strings (oracles.check_orbit_keys), the Gray image
of a reduced module span (binary_image, for the divisor and unit parts
too), a GrayMap decoder that carries basis combinations through its own
elimination, and the Gray tables built per element and per byte
(oracles.bit_loop_word_image, oracles.object_byte_table).
"""

from __future__ import annotations

import random
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import bit_loop_word_image, check_orbit_keys, digit_blocks, object_byte_table
from rkcodes.analysis import _BlockParts
from rkcodes.codes import (
    QTCode,
    _byte_table,
    _map_coordinates,
    _span_of_flat,
    binary_image,
    binary_image_of_span,
    generator_rows,
    image_parts,
)
from rkcodes.gf2 import LOW_ROWS, F2Span, information_sets, span_counts, span_min_weight
from rkcodes import graymap
from rkcodes.graymap import GrayMap, NotInImageError
from rkcodes.polyqt import format_generator
from rkcodes.ring import RingElement, elements, gamma, parse_element


def oracle_map_coordinates(k, n, basis, lookup, width):
    """Flat rows with each R_k coordinate x replaced by lookup(x), width bits wide."""
    w = 1 << k
    mask = (1 << w) - 1
    places = [(i * w, i * width) for i in range(n)]
    rows = []
    for flat in basis:
        img = 0
        for src, dst in places:
            img |= lookup(flat >> src & mask) << dst
        rows.append(img)
    return rows


class OracleSpan:
    """F2Span before pivot masks: reduce and add test every row's pivot bit."""

    def __init__(self, rows=()):
        self._rows: dict[int, int] = {}  # pivot index -> reduced row
        for r in rows:
            self.add(r)

    def reduce(self, v: int) -> int:
        for pivot, row in self._rows.items():
            if (v >> pivot) & 1:
                v ^= row
        return v

    def add(self, v: int) -> bool:
        v = self.reduce(v)
        if v == 0:
            return False
        pivot = (v & -v).bit_length() - 1
        for p in self._rows:
            if (self._rows[p] >> pivot) & 1:
                self._rows[p] ^= v
        self._rows[pivot] = v
        return True

    def basis(self) -> tuple[int, ...]:
        return tuple(self._rows[p] for p in sorted(self._rows))


def random_basis(rng: random.Random, rank: int, length: int) -> tuple[int, ...]:
    span = OracleSpan()
    while len(span.basis()) < rank:
        span.add(rng.getrandbits(length))
    return span.basis()


@pytest.mark.parametrize("k", [1, 2, 3], ids=lambda k: f"{k}-gray")
def test_byte_table_map_matches_per_coordinate_loop(k):
    gray = GrayMap(k)
    lookup, width = gray.word_image, gray.image_len
    rng = random.Random(20 + k)
    w = 1 << k
    for n in (1, 2, 3, 5, 7, 9):  # odd n leaves zero coordinates in the last byte
        basis = [0, (1 << n * w) - 1, 1 << (n - 1) * w]
        basis += [rng.getrandbits(n * w) for _ in range(8)]
        got = _map_coordinates(k, n, basis)
        assert got == oracle_map_coordinates(k, n, basis, lookup, width), (k, n)
        assert all(row < 1 << n * width for row in got)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_gray_tables_match_the_per_element_and_per_byte_builds(k):
    gray = GrayMap(k)
    assert [gray.word_image(c) for c in range(1 << (1 << k))] == [
        bit_loop_word_image(gray, c) for c in range(1 << (1 << k))
    ]
    assert _byte_table(k) == object_byte_table(k)


def test_byte_tables_build_without_ring_elements(monkeypatch):
    def refuse(*args):
        raise AssertionError("the byte table went through RingElement images")

    for name in ("element_image", "image"):
        monkeypatch.setattr(GrayMap, name, refuse)
    monkeypatch.setattr(RingElement, "__post_init__", refuse)
    _byte_table.cache_clear()
    assert [len(_byte_table(k)) for k in (1, 2, 3)] == [256, 256, 256]


rows_strategy = st.lists(st.integers(0, (1 << 12) - 1) | st.integers(0, 15), max_size=16)


@given(rows_strategy, st.lists(st.integers(0, (1 << 12) - 1), max_size=8))
def test_f2span_matches_naive_elimination(rows, probes):
    span, oracle = F2Span(), OracleSpan()
    for r in rows:
        assert span.add(r) == oracle.add(r)
    assert span.basis() == oracle.basis()
    assert span.rank == len(oracle.basis())
    assert F2Span(rows).basis() == oracle.basis()
    for v in probes + rows:
        assert span.reduce(v) == oracle.reduce(v)
        assert (v in span) == (oracle.reduce(v) == 0)


@pytest.mark.parametrize("rank", range(LOW_ROWS + 4))
def test_span_min_weight_matches_span_counts(rank):
    rng = random.Random(rank)
    for length in (rank + 1, 2 * rank + 3, 40):
        basis = random_basis(rng, rank, length)
        counts = span_counts(basis)
        nonzero = [w for w in counts if w]
        if rank == 0:
            assert not nonzero
            with pytest.raises(ValueError):
                span_min_weight(basis)
        else:
            assert span_min_weight(basis) == min(nonzero), (rank, length)


ORBIT_SHAPES = [  # (k, notation, ell, m)
    (1, "r1", 3, 3),
    (1, "r1", 1, 5),
    (2, "hex", 2, 3),
    (2, "hex", 1, 1),
    (2, "generic", 2, 4),
    (3, "generic", 3, 2),
]


@pytest.mark.parametrize("shape", ORBIT_SHAPES, ids=lambda s: "-".join(map(str, s)))
def test_orbit_min_string_keys_match_check_orbit_keys(shape):
    k, notation, ell, m = shape
    rng = random.Random(str(shape))
    size = 1 << (1 << k)
    for _ in range(200):
        lam = RingElement(k, rng.randrange(1, size, 2))
        top = rng.choice((3, size - 1))  # small digits make ties and shared prefixes
        digits = [rng.randint(0, top) for _ in range(ell * m)]
        shifts = [part[0] for part in _BlockParts(k, lam, ell, m, notation).blocks(digits)]
        check_orbit_keys(shifts, digit_blocks(k, m, digits), lam, notation)


@pytest.mark.parametrize("shape", ORBIT_SHAPES, ids=lambda s: "-".join(map(str, s)))
def test_block_parts_match_check_orbit_keys_and_the_span_image(shape):
    # The image oracle reduces twice: the module span, then its Gray image.
    k, notation, ell, m = shape
    rng = random.Random(f"parts {shape}")
    size, n = 1 << (1 << k), ell * m
    for _ in range(6):
        lam = RingElement(k, rng.randrange(1, size, 2))
        parts_of = _BlockParts(k, lam, ell, m, notation)  # memos shared by the trials below
        top = rng.choice((3, size - 1))
        pool = [bytes(m), *(bytes(rng.randint(0, top) for _ in range(m)) for _ in range(3))]
        for trial in range(24):  # few blocks, so most trials hit memoised parts
            digits = b"".join(rng.choice(pool) for _ in range(ell))
            digits = (bytes, tuple, list)[trial % 3](digits)
            parts = parts_of.blocks(digits)
            check_orbit_keys([part[0] for part in parts], digit_blocks(k, m, digits), lam, notation)
            span = _span_of_flat(k, n, generator_rows(k, lam.coeffs, ell, m, digits))
            got = parts_of.image(digits, parts)
            assert got == binary_image_of_span(span), digits
            img = binary_image(candidate_code(k, lam, ell, m, digits))
            assert (got, got.divisor, got.parts) == (img, img.divisor, img.parts), digits


def candidate_code(k, lam, ell, m, digits):
    """The QTCode of one generator tuple given as search digits."""
    return QTCode(lam, ell, m, (digit_blocks(k, m, digits),))


RANK_NOTATIONS = [(1, "r1"), (2, "hex"), (1, "generic"), (2, "generic"), (3, "generic")]


@pytest.mark.parametrize("k, notation", RANK_NOTATIONS)
def test_rank_tables_order_elements_as_their_generator_strings(k, notation):
    # In a generator [[a, b], [c, d]], a and c are followed in their block, b ends a block and
    # d the string.  Ranks are distinct and texts are too, so equal sorts mean that every pair
    # of elements compares by rank as it does by text.
    parts = _BlockParts(k, RingElement(k, 1), 2, 2, notation)
    ring = list(elements(k))
    rng = random.Random(f"ranks {k} {notation}")
    for place, table in ((0, parts.inner), (2, parts.inner), (1, parts.block_end),
                         (3, parts.string_end)):
        assert sorted(table[:len(ring)]) == list(range(len(ring)))
        for _ in range(3):
            gen = [rng.choice(ring) for _ in range(4)]

            def text(e):
                gen[place] = e
                return format_generator([gen[:2], gen[2:]], notation)

            assert sorted(ring, key=lambda e: table[e.coeffs]) == sorted(ring, key=text)
    if (k, notation) == (1, "generic"):  # "1+u1," < "1," since "+" < ",", but "1" < "1+u1"
        one, one_u = parse_element("1", 1, notation), parse_element("1+u1", 1, notation)
        assert parts.inner[one_u.coeffs] < parts.inner[one.coeffs]
        assert parts.block_end[one_u.coeffs] < parts.block_end[one.coeffs]
        assert parts.string_end[one.coeffs] < parts.string_end[one_u.coeffs]


EXHAUSTIVE_ORBIT_SHAPES = [  # (k, notation, lambda, ell, m), at most 2^12 tuples each
    (1, "r1", "3", 3, 2),
    (1, "r1", "1", 1, 6),
    (1, "generic", "1+u1", 2, 3),  # (000|331) is least: "...|1+u1,1+u1,1" < "...,1+u1"
    (2, "hex", "b", 1, 3),
    (2, "generic", "1+u1+u1u2", 3, 1),
    (2, "generic", "1+u2", 1, 3),
    (3, "generic", "1+u1+u2u3", 1, 1),
]


@pytest.mark.parametrize("shape", EXHAUSTIVE_ORBIT_SHAPES, ids=lambda s: "-".join(map(str, s)))
def test_orbit_decision_matches_the_strings_on_every_tuple(shape):
    k, notation, lam_text, ell, m = shape
    lam = parse_element(lam_text, k, notation)
    parts_of = _BlockParts(k, lam, ell, m, notation)
    kept = 0
    for digits in product(range(1 << (1 << k)), repeat=ell * m):
        shifts = [part[0] for part in parts_of.blocks(digits)]
        kept += check_orbit_keys(shifts, digit_blocks(k, m, digits), lam, notation)
    total = (1 << (1 << k)) ** (ell * m)
    assert kept == total if m == 1 else 0 < kept < total  # at m = 1 every orbit is one tuple


@pytest.mark.parametrize("ell, m", [(1, 4), (2, 3)])
def test_block_parts_images_above_one_block_keep_their_distance(ell, m):
    # above LOW_ROWS rows min_distance goes by information sets, where the unit parts count
    k, size = 2, 16
    rng = random.Random(f"parts above one block {ell} {m}")
    lam = RingElement(k, 1)
    parts_of = _BlockParts(k, lam, ell, m, "hex")
    seen, copies = 0, set()
    while seen < 12:
        alphabet = rng.choice((range(size), range(0, size, 2)))
        digits = bytes(rng.choice(alphabet) for _ in range(ell * m))
        img = parts_of.image(digits, parts_of.blocks(digits))
        if not LOW_ROWS < img.rank <= 16:
            continue
        seen += 1
        assert img.parts == image_parts(k, ell * m) and img.divisor == gamma(k)
        assert img.min_distance() == span_min_weight(img.rows), digits
        copies.add(information_sets(img.rows, img.parts, img.divisor)[1])
    assert max(copies) > 1  # a unit part was chosen


class OracleDecoder:
    """GrayMap's decoder before F2Span: reduced rows with the basis combination behind each."""

    def __init__(self, basis_rows):
        self._reduced = []  # (pivot, row, combination)
        for idx, row in enumerate(basis_rows):
            comb = 1 << idx
            for pivot, r, c in self._reduced:
                if (row >> pivot) & 1:
                    row ^= r
                    comb ^= c
            assert row, "basis table rows are not independent"
            self._reduced.append(((row & -row).bit_length() - 1, row, comb))

    def preimage(self, block: int) -> int | None:
        """Coefficient word of the element whose image is block, or None."""
        comb = 0
        for pivot, row, c in self._reduced:
            if (block >> pivot) & 1:
                block ^= row
                comb ^= c
        return None if block else comb


def assert_decoders_agree(gray: GrayMap, oracle: OracleDecoder, block: int) -> bool:
    """Both decoders give the same preimage or both reject; True if accepted."""
    want = oracle.preimage(block)
    if want is None:
        with pytest.raises(NotInImageError):
            gray.element_preimage(block)
        return False
    assert gray.element_preimage(block) == RingElement(gray.k, want)
    return True


@pytest.mark.parametrize("k", [1, 2])
def test_gray_decoder_matches_hand_elimination_on_every_block(k):
    gray = GrayMap(k)
    oracle = OracleDecoder(gray.basis_rows)
    accepted = [b for b in range(1 << gray.image_len) if assert_decoders_agree(gray, oracle, b)]
    assert len(accepted) == 1 << (1 << k)
    assert sorted(accepted) == sorted(gray.word_image(c) for c in range(1 << (1 << k)))


def test_gray_decoder_k3_round_trip_and_rejects():
    gray = GrayMap(3)
    oracle = OracleDecoder(gray.basis_rows)
    for c in range(256):
        block = gray.word_image(c)
        assert oracle.preimage(block) == c
        assert gray.element_preimage(block) == RingElement(3, c)
        # RM(1, 7) has minimum distance 64, so one flipped bit leaves the image.
        assert not assert_decoders_agree(gray, oracle, block ^ 1 << (c % gray.image_len))
    rng = random.Random(3)
    for _ in range(300):
        assert not assert_decoders_agree(gray, oracle, rng.getrandbits(gray.image_len))
    with pytest.raises(NotInImageError, match="does not fit"):
        gray.element_preimage(1 << gray.image_len)


def test_gray_decoder_refuses_dependent_basis_rows(monkeypatch):
    monkeypatch.setitem(graymap._PINNED_ROWS, 1, (0b11, 0b11))
    with pytest.raises(AssertionError, match="not independent"):
        GrayMap(1)
