"""Flat-int code construction against the RingElement versions it replaced.

The oracles below are the implementations the flat-int code replaced:
module spans by RingElement multiplication, twisted shifts (in spanning
rows and in the shift-invariance check) by oracles.shift_n, one
polyqt.shift at a time, Gray images by GrayMap.image on every codeword,
residue words by the residue of every RingElement, and the search orbit
check on formatted generator strings.  Search builds codes straight from
digit tuples, so the QTCode it used to build per candidate, and the
base-2^(2^k) decode of a tuple index, are oracles too.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import check_orbit_keys, digit_blocks, oracle_spanning_rows, shift_n, units
from rkcodes import analysis
from rkcodes.analysis import SearchConfig, _BlockParts, _draw_digits, _evaluate_chunk
from rkcodes.codes import (
    BinaryCode,
    QTCode,
    _span_of_flat,
    binary_image_of_span,
    code_span,
    flatten_vec,
    generator_rows,
    module_span,
    qt_generator_matrix,
    residue_word,
    span_shift_invariant,
)
from rkcodes.gf2 import F2Span
from rkcodes.graymap import GrayMap
from rkcodes.ring import RingElement, elements, parse_element


def oracle_module_span(rows) -> tuple[int, ...]:
    """F2 basis of all monomial multiples u_A * row, by ring multiplication."""
    k = rows[0][0].k
    span = F2Span()
    for row in rows:
        for mask in range(1 << k):
            scalar = RingElement(k, 1 << mask)
            span.add(flatten_vec([scalar * e for e in row]))
    return span.basis()


def random_vec(rng: random.Random, k: int, n: int, alphabet=None):
    size = 1 << (1 << k)
    alphabet = alphabet or range(size)
    return tuple(RingElement(k, rng.choice(alphabet)) for _ in range(n))


@given(st.data())
def test_residue_word_matches_the_residue_of_each_element(data):
    k = data.draw(st.integers(1, 6))  # every ring the library takes
    n = data.draw(st.integers(1, 24))
    flat = data.draw(st.sampled_from([0, (1 << (n << k)) - 1]) | st.integers(0, (1 << (n << k)) - 1))
    vec = [RingElement(k, flat >> (i << k) & (1 << (1 << k)) - 1) for i in range(n)]
    assert flatten_vec(vec) == flat
    assert residue_word(flat, k, n) == sum((e.coeffs & 1) << i for i, e in enumerate(vec))


def test_module_span_rejects_mixed_rings():
    with pytest.raises(ValueError, match="mixed ring"):
        module_span([(RingElement(1, 1),), (RingElement(2, 1),)])
    with pytest.raises(ValueError, match="mixed ring"):
        module_span([(RingElement(2, 1), RingElement(1, 1))])


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_module_span_matches_ring_multiplication(k):
    rng = random.Random(k)
    size = 1 << (1 << k)
    nonunits = range(0, size, 2)
    ideal = range(0, size, 4)  # coefficients of u_1 * R_k: a non-free module
    for trial in range(40):
        n = rng.randint(1, 5 if k < 4 else 2)
        alphabet = (None, nonunits, ideal)[trial % 3]
        rows = [random_vec(rng, k, n, alphabet) for _ in range(rng.randint(1, 3))]
        assert module_span(rows).basis == oracle_module_span(rows), (k, rows)


def twisted_shift_cases():
    rng = random.Random(3)
    for k in (1, 2, 3):
        if k < 3:
            lams = list(units(k))
        else:
            lams = [RingElement(3, rng.randrange(1, 256, 2)) for _ in range(12)]
        for lam in lams:
            ell, m = rng.randint(1, 3), rng.randint(1, 4)
            gens = tuple(
                tuple(random_vec(rng, k, m) for _ in range(ell))
                for _ in range(rng.randint(1, 2))
            )
            yield QTCode(lam, ell, m, gens)


@pytest.mark.parametrize("code", list(twisted_shift_cases()))
def test_flat_twisted_shift_matches_shift_n(code):
    rows = oracle_spanning_rows(code)
    assert qt_generator_matrix(code) == tuple(
        sum(tuple(shift_n(block, code.lam, i) for block in gen), ())
        for gen in code.generators
        for i in range(code.m)
    )
    assert code_span(code).basis == oracle_module_span(rows)


def oracle_rows_shift_invariant(rows, lam, ell) -> bool:
    span = F2Span(module_span(rows).basis)
    return all(flatten_vec(shift_n(row, lam, ell)) in span for row in rows)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_rows_shift_invariant_matches_shift_n(k):
    rng = random.Random(30 + k)
    size = 1 << (1 << k)
    outcomes = set()
    for trial in range(30):
        lam = RingElement(k, rng.randrange(1, size, 2))
        ell, m = rng.randint(1, 3), rng.randint(1, 3 if k < 3 else 2)
        if trial % 2:  # spanning rows of a QT code: invariant under T_lam^ell
            gen = tuple(random_vec(rng, k, m, range(0, size, 1 + trial % 3)) for _ in range(ell))
            rows = oracle_spanning_rows(QTCode(lam, ell, m, (gen,)))
        else:
            rows = [random_vec(rng, k, ell * m) for _ in range(rng.randint(1, 2))]
        for steps in range(1, ell * m + 1):
            got = span_shift_invariant(module_span(rows), lam, steps)
            assert got == oracle_rows_shift_invariant(rows, lam, steps), (rows, lam, steps)
            outcomes.add(got)
    assert outcomes == {True, False}


def test_rows_shift_invariant_rejects_bad_twist_or_shift():
    row = (RingElement(2, 1), RingElement(2, 6), RingElement(2, 3))
    for lam, steps in [
        (RingElement(2, 2), 1),  # not a unit
        (RingElement(2, 0), 1),
        (RingElement(1, 1), 1),  # a unit of another ring
        (RingElement(3, 1), 1),
        (RingElement(2, 1), 0),  # shift outside 1..n
        (RingElement(2, 1), -1),
        (RingElement(2, 1), 4),
    ]:
        with pytest.raises(ValueError):
            span_shift_invariant(module_span([row]), lam, steps)
    assert span_shift_invariant(module_span([row]), RingElement(2, 1), 3)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_binary_image_matches_gray_image_of_every_codeword(k):
    rng = random.Random(10 + k)
    gray = GrayMap(k)
    for _ in range(25):
        n = rng.randint(1, 4 if k < 3 else 2)
        rows = [random_vec(rng, k, n) for _ in range(rng.randint(1, 2))]
        span = module_span(rows)
        if span.rank > 12:
            continue
        words = [gray.image(word) for word in span.codewords()]
        expected = BinaryCode.from_rows(n * gray.image_len, words)
        assert binary_image_of_span(span) == expected


ORBIT_SHAPES = [  # (k, notation, ell, m)
    (1, "r1", 3, 3),
    (1, "r1", 2, 4),
    (2, "hex", 2, 3),
    (2, "generic", 2, 3),
    (3, "generic", 2, 2),
]


@st.composite
def orbit_cases(draw):
    """A shape, a unit lambda and a digit tuple."""
    k, notation, ell, m = draw(st.sampled_from(ORBIT_SHAPES))
    size = 1 << (1 << k)
    # Small digits collide more often, so ties and prefix tokens get tested.
    digit = st.integers(0, size - 1) | st.integers(0, 3)
    digits = draw(st.lists(digit, min_size=ell * m, max_size=ell * m))
    lam = draw(st.integers(0, size // 2 - 1)) * 2 + 1
    return k, notation, ell, m, RingElement(k, lam), digits


@given(orbit_cases())
def test_orbit_min_string_matches_formatted_orbit(case):
    k, notation, ell, m, lam, digits = case
    shifts = [part[0] for part in _BlockParts(k, lam, ell, m, notation).blocks(digits)]
    check_orbit_keys(shifts, digit_blocks(k, m, digits), lam, notation)


DIGIT_SHAPES = [  # (k, notation, lambda, ell, m)
    (1, "r1", "3", 3, 3),
    (2, "hex", "1", 2, 3),
    (2, "hex", "b", 2, 3),
    (3, "generic", "1+u1+u2u3", 2, 2),
]


@pytest.mark.parametrize("k, notation, lam_text, ell, m", DIGIT_SHAPES)
def test_span_from_digits_matches_qtcode(k, notation, lam_text, ell, m):
    lam = parse_element(lam_text, k, notation)
    ring = tuple(elements(k))
    size = len(ring)
    rng = random.Random(ell * m + k)
    for trial in range(200):
        alphabet = range(0, size, 1 + trial % 2)  # nonunit digits give non-free modules
        digits = [rng.choice(alphabet) for _ in range(ell * m)]
        # Oracle: the RingElement blocks of the digits, as a QTCode holds them.
        blocks = tuple(
            tuple(map(ring.__getitem__, digits[lo : lo + m])) for lo in range(0, ell * m, m)
        )
        code = QTCode(lam, ell, m, (blocks,))
        span = _span_of_flat(k, ell * m, generator_rows(k, lam.coeffs, ell, m, digits))
        assert span == code_span(code), (digits, lam_text)
        if trial < 20:
            assert span.basis == oracle_module_span(oracle_spanning_rows(code))


def base_size_digits(idx: int, size: int, positions: int) -> list[int]:
    """Digit j is the j-th most significant base-size digit of idx."""
    digits = []
    for _ in range(positions):
        digits.append(idx % size)
        idx //= size
    return digits[::-1]


@pytest.mark.parametrize(
    "lo, hi",
    [(0, 4096), (0, 1), (1, 2), (5, 6), (63, 129), (1024, 2048), (2047, 2049), (4095, 4096), (9, 9)],
)
def test_exhaustive_chunk_digits_match_base_size_decode(monkeypatch, lo, hi):
    k, ell, m = 1, 2, 3  # 4^6 = 4096 tuples
    seen = []
    blocks = _BlockParts.blocks

    def recording(self, digits):
        seen.append(list(digits))
        return blocks(self, digits)

    monkeypatch.setattr(_BlockParts, "blocks", recording)
    config = SearchConfig(k=k, lam="3", ell=ell, m_values=(m,), budget=24)
    _evaluate_chunk({"config": config, "m": m, "index_range": (lo, hi)})
    expected = [base_size_digits(idx, 4, ell * m) for idx in range(lo, hi)]
    assert seen == [d for d in expected if any(d)]


def test_chunk_output_does_not_depend_on_the_block_memo_bound(monkeypatch):
    # (k, lambda, ell, m) = (2, 1, 2, 4) has 16^4 blocks per position; the
    # budget skips the large codes, whose distance would take most of the time.
    config = SearchConfig(
        k=2, lam="1", ell=2, m_values=(4,), mode="random", samples=5000, seed=1, budget=12
    )
    digits = _draw_digits(random.Random(config.seed), 16, 8 * config.samples)
    tuples = [digits[i:i + 8] for i in range(0, len(digits), 8)]
    for lo in (0, 4):  # more distinct blocks than a memo holds, at both positions
        assert len({t[lo:lo + 4] for t in tuples}) > analysis._MEMO_ENTRIES
    bounded = _BlockParts(2, RingElement(2, 1), 2, 4, None)
    shifts = [[part[0] for part in bounded.blocks(t)] for t in tuples]
    assert all(0 < len(memo) <= analysis._MEMO_ENTRIES for memo in bounded.memos)
    payload = {"config": config, "m": 4, "tuples": tuples}
    chunk = _evaluate_chunk(payload)
    assert chunk[0] and chunk[1]  # some codes evaluated, some skipped for the budget
    monkeypatch.setattr(analysis, "_MEMO_ENTRIES", len(tuples) + 1)  # never fills
    unbounded = _BlockParts(2, RingElement(2, 1), 2, 4, None)
    assert [[part[0] for part in unbounded.blocks(t)] for t in tuples] == shifts
    assert _evaluate_chunk(payload) == chunk
