"""Blocked codeword enumeration against plain per-word loops."""

from __future__ import annotations

import random
from collections import Counter
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import top, units
from rkcodes import codes as codes_module
from rkcodes.analysis import bound_check, build_row_code, load_table_rows
from rkcodes.codes import (
    QTCode,
    WeightEnumerator,
    _cosets,
    _span_of_flat,
    _split,
    code_span,
    flatten_vec,
    hom_minima,
    hom_split,
    hom_weight_enumerator,
    module_span,
    residue_code,
    residue_split,
    residue_word,
    unflatten_vec,
)
from rkcodes.gf2 import LOW_ROWS, F2Span, min_weight, span_blocks, span_counts, span_iter
from rkcodes.graymap import GrayMap
from rkcodes.ring import (
    K_MAX,
    RingElement,
    gamma,
    hom_weight_vec,
    monomial,
    unit_count,
)

def random_basis(rng: random.Random, rank: int, length: int) -> tuple[int, ...]:
    span = F2Span()
    while span.rank < rank:
        span.add(rng.getrandbits(length))
    return span.basis()


def random_codes(seed: int, count: int, ks=(1, 2, 3), max_rank: int = 13, min_rank: int = 0):
    """Random QT codes over R_k, k in ks, of F2 rank in min_rank..max_rank."""
    rng = random.Random(seed)
    max_n = {1: 6, 2: 4, 3: 2}
    out = []
    while len(out) < count:
        k = rng.choice(ks)
        ell = rng.randint(1, max_n[k])
        m = rng.randint(1, max_n[k] // ell)
        lam = rng.choice(list(units(k)))
        gens = tuple(
            tuple(
                tuple(RingElement(k, rng.randrange(1 << (1 << k))) for _ in range(m))
                for _ in range(ell)
            )
            for _ in range(rng.choice((1, 1, 2)))
        )
        if not any(e for gen in gens for block in gen for e in block):
            continue
        code = QTCode(lam, ell, m, gens)
        if min_rank <= code_span(code).rank <= max_rank:
            out.append(code)
    return out


@pytest.mark.parametrize("rank", [0, 1, LOW_ROWS - 1, LOW_ROWS, LOW_ROWS + 1, 15])
def test_span_counts_matches_span_iter(rank):
    basis = random_basis(random.Random(rank), rank, 40)
    assert span_counts(basis) == Counter(map(int.bit_count, span_iter(basis)))


@pytest.mark.parametrize("rank", [0, 1, LOW_ROWS, LOW_ROWS + 1, LOW_ROWS + 3])
def test_span_blocks_cover_the_coset(rank):
    basis = random_basis(random.Random(rank), rank + 1, 40)
    rows, outside = basis[:rank], basis[rank]  # the last row is outside the span of the others
    for start in (0, outside):
        blocks = list(span_blocks(rows, start))
        assert len(blocks) == 2 ** max(0, rank - LOW_ROWS)
        assert isinstance(blocks[0], list) and blocks[0][0] == start
        words = Counter(chain.from_iterable(blocks))
        assert words == Counter(start ^ w for w in span_iter(rows))


@settings(max_examples=60)
@given(st.lists(st.integers(0, (1 << 48) - 1), max_size=14))
def test_span_counts_property(rows):
    basis = F2Span(rows).basis()
    counts = span_counts(basis)
    assert sum(counts.values()) == 1 << len(basis)
    assert counts == Counter(map(int.bit_count, span_iter(basis)))


def oracle_hom_enumerator(code: QTCode) -> WeightEnumerator:
    words = code_span(code).codewords()
    return WeightEnumerator(Counter(sum(e.hom_weight() for e in word) for word in words))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_hom_weight_enumerator_matches_ring_weights(k):
    for code in random_codes(k, 15, ks=(k,)):
        assert hom_weight_enumerator(code) == oracle_hom_enumerator(code), code


def test_hom_weight_enumerator_wide_coordinates():
    # R_4 is past K_MAX: no byte weight table, coordinates weighed one at a time.
    code = QTCode.from_strings(4, ["u1u2,u3u4+u1u2u3u4"], notation="generic")
    enum = hom_weight_enumerator(code)
    assert enum == oracle_hom_enumerator(code)
    assert enum[2 * gamma(4)] > 0  # the top monomial is reached


@settings(max_examples=60)
@given(st.data())
def test_hom_counts_matches_per_word_weights(data):
    # any F2 basis of flat words, not only R_k-modules: the weight adds over coordinates
    k = data.draw(st.integers(1, 3))
    n = data.draw(st.integers(16 >> k, 24 >> k))
    rank = data.draw(st.sampled_from((0, 1, LOW_ROWS - 1, LOW_ROWS, LOW_ROWS + 1, LOW_ROWS + 3)))
    rows = data.draw(st.lists(st.integers(0, (1 << (n << k)) - 1), min_size=rank, max_size=rank))
    basis = F2Span(rows).basis()
    words = (unflatten_vec(flat, k, n) for flat in span_iter(basis))
    assert hom_counts(k, n, basis) == Counter(sum(e.hom_weight() for e in word) for word in words)


def gray_rows(k: int, n: int, basis) -> list[int]:
    """Flat rows with each coordinate x replaced by GrayMap(k).word_image(x), one at a time."""
    image, width, mask = GrayMap(k).word_image, unit_count(k), (1 << (1 << k)) - 1
    return [sum(image(flat >> (i << k) & mask) << i * width for i in range(n)) for flat in basis]


def walked_hom_counts(k: int, n: int, basis) -> Counter:
    """Every word of the span weighed: Gray rows by popcount, or RingElements past K_MAX."""
    if k <= K_MAX:  # the Gray map is F2-linear: the rows' images span the span's
        return span_counts(gray_rows(k, n, basis))
    return Counter(hom_weight_vec(unflatten_vec(flat, k, n)) for flat in span_iter(basis))


def is_module(k: int, n: int, basis) -> bool:
    """True iff the F2-span of flat words is closed under u_1, ..., u_k: an R_k-module."""
    span = F2Span(basis)
    gens = [monomial(k, [j]) for j in range(1, k + 1)]
    return all(times(k, n, row, u) in span for u in gens for row in basis)


def split_counts(k: int, n: int, basis) -> Counter:
    """hom_split's two counts summed: the weight distribution, if the span is an R_k-module."""
    _, inside, outside = hom_split(k, n, tuple(basis))
    return Counter(inside) + Counter(outside)


def hom_counts(k: int, n: int, basis) -> Counter:
    """Homogeneous weight -> count over any F2-span: split_counts for a module, else walked."""
    return split_counts(k, n, basis) if is_module(k, n, basis) else walked_hom_counts(k, n, basis)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_paired_hom_counts_match_the_walk_on_module_spans(k):
    codes = random_codes(10 + k, 12, ks=(k,), max_rank=20, min_rank=LOW_ROWS + 1)
    assert any(code.lam.coeffs != 1 for code in codes)
    for code in codes:
        span = code_span(code)
        assert is_module(span.k, span.n, span.basis)  # split by unit orbits
        assert hom_counts(k, span.n, span.basis) == walked_hom_counts(k, span.n, span.basis), code


def test_hom_weight_enumerator_past_one_byte_of_weight():
    # 130 coordinates over R_1: a word weighs up to 260 gamma, past one byte's lane
    rng = random.Random(130)
    gens = ["|".join(rng.choice("01u3") for _ in range(130)) for _ in range(6)]
    code = QTCode.from_strings(1, gens)
    span = code_span(code)
    assert span.n == 130 and span.rank > LOW_ROWS
    codes_module.last_code.reset()
    assert hom_weight_enumerator(code) == oracle_hom_enumerator(code)
    assert_minima_match_the_walk(1, span.n, span.basis)


def test_paired_hom_counts_past_k_max():
    code = QTCode.from_strings(4, ["u1u2,u3u4+u1u2u3u4"], lam="1+u1", notation="generic")
    span = code_span(code)
    assert span.rank > LOW_ROWS and is_module(4, span.n, span.basis)
    assert hom_counts(4, span.n, span.basis) == walked_hom_counts(4, span.n, span.basis)


def times(k: int, n: int, flat: int, e: RingElement) -> int:
    """The flat word e * flat, one RingElement product per coordinate."""
    return flatten_vec([x * e for x in unflatten_vec(flat, k, n)])


def test_hom_counts_walks_spans_not_closed_under_u_top():
    # lifts and the kernel without the u_top multiples of the lifts: not a module
    k, n = 2, 4
    span = code_span(QTCode.from_strings(k, ["2461"]))
    _, lifts, kernel = residue_split(k, n, span.basis)
    tops = [times(k, n, r, top(k)) for r in lifts]
    basis = F2Span(lifts + [row for row in kernel if row not in tops]).basis()
    assert basis == (1, 2, 4, 16, 32, 64, 256, 512, 1024, 4096, 8192, 16384)
    assert len(basis) > LOW_ROWS and not is_module(k, n, basis)
    assert hom_counts(k, n, basis) == walked_hom_counts(k, n, basis)
    assert split_counts(k, n, basis) != walked_hom_counts(k, n, basis)  # hom_split needs a module


def orbit_split_counts(k: int, n: int, basis) -> Counter:
    """Kernel counts plus |U| times the orbit cosets' counts, each coset word weighed alone."""
    _, lifts, kernel = residue_split(k, n, basis)
    counts = walked_hom_counts(k, n, kernel)
    for start, rows in _cosets(lifts, kernel, (1 << k) - 1):
        coset = Counter(hom_weight_vec(unflatten_vec(start ^ y, k, n)) for y in span_iter(rows))
        counts.update({w: c * unit_count(k) for w, c in coset.items()})
    return counts


@pytest.mark.parametrize("k, n, words", [(2, 6, 8), (3, 3, 10)])
def test_hom_counts_walks_spans_closed_under_u_top_alone(k, n, words):
    # span(x, u_top*x) over random x: closed under u_top, as u_top^2 = 0, but not an R_k-module
    rng = random.Random(k)
    xs = [rng.getrandbits(n << k) for _ in range(words)]
    basis = F2Span(xs + [times(k, n, x, top(k)) for x in xs]).basis()
    span = F2Span(basis)
    assert len(basis) > LOW_ROWS
    assert all(times(k, n, row, top(k)) in span for row in basis)
    gens = [monomial(k, [j]) for j in range(1, k + 1)]
    assert not all(times(k, n, row, u) in span for u in gens for row in basis)
    walked = Counter(hom_weight_vec(unflatten_vec(flat, k, n)) for flat in span_iter(basis))
    assert hom_counts(k, n, basis) == walked
    assert orbit_split_counts(k, n, basis) != walked  # what a u_top-only check would have let in
    assert split_counts(k, n, basis) != walked


# codes of rank 12 inside the maximal ideal: every word in the residue kernel
IDEAL_GENERATORS = {
    1: "u1,u1,0,u1,0,0,0,0,0,0,0,0",
    2: "u1,u2,u1+u2,u1u2,u1+u1u2,u2+u1u2",
    3: "u1,u2|u3,u1u2",
}


# codes of rank at most LOW_ROWS inside the maximal ideal: no lifts
SMALL_IDEAL_GENERATORS = {1: "u1,u1", 2: "u1,u2", 3: "u1u2,u3"}


def split_minima(inside: Counter, outside: Counter) -> tuple[int | None, int | None]:
    """Least nonzero weight inside the kernel and least weight outside it, as bound_check reads."""
    return min((w for w in inside if w), default=None), min(outside, default=None)


def walked_minima(k: int, n: int, basis, kernel) -> tuple[int | None, int | None]:
    """split_minima of every word weighed."""
    inside = walked_hom_counts(k, n, kernel)
    return split_minima(inside, walked_hom_counts(k, n, basis) - inside)


def assert_minima_match_the_walk(k: int, n: int, basis) -> tuple[int | None, int | None]:
    """hom_split, and hom_minima before and after it, against every word weighed.

    Returns the two minima.
    """
    residues, _, kernel = residue_split(k, n, basis)
    expected = walked_minima(k, n, basis, kernel)
    codes_module.last_code.reset()
    # above one block the min-only coset walk, else hom_split's one walk
    assert hom_minima(k, n, tuple(basis)) == (tuple(residues), *expected)
    split_residues, inside, outside = hom_split(k, n, tuple(basis))
    assert list(split_residues) == residues
    assert inside == walked_hom_counts(k, n, kernel)
    assert outside == walked_hom_counts(k, n, basis) - Counter(inside)
    assert split_minima(inside, outside) == expected
    assert hom_minima(k, n, tuple(basis)) == (split_residues, *expected)  # pure: same again
    return expected


@pytest.mark.parametrize("k", [1, 2, 3])
def test_hom_minima_match_the_walk(k):
    codes = random_codes(20 + k, 15, ks=(k,), max_rank=18, min_rank=LOW_ROWS + 1)
    codes.append(QTCode.from_strings(k, [IDEAL_GENERATORS[k]], notation="generic"))
    codes += random_codes(30 + k, 15, ks=(k,), max_rank=LOW_ROWS, min_rank=1)
    small_ideal = QTCode.from_strings(k, [SMALL_IDEAL_GENERATORS[k]], notation="generic")
    codes.append(small_ideal)
    for code in codes:
        span = code_span(code)
        d_kernel, d_nonkernel = assert_minima_match_the_walk(k, span.n, span.basis)
        if code is small_ideal:
            assert not residue_split(k, span.n, span.basis)[1] and 0 < span.rank <= LOW_ROWS
            assert d_nonkernel is None
    # empty kernels: the zero span, and the F2 span of one word with a unit coordinate
    codes_module.last_code.reset()
    assert hom_minima(k, 2, ()) == ((), None, None)
    assert hom_split(k, 2, ()) == ((), Counter({0: 1}), Counter())
    assert hom_minima(k, 2, ()) == ((), None, None)
    codes_module.last_code.reset()
    assert hom_minima(k, 2, (1,))[1:] == walked_minima(k, 2, [1], []) == (None, gamma(k))
    _, inside, outside = hom_split(k, 2, (1,))  # no module: only its least weights hold
    assert split_minima(inside, outside) == (None, gamma(k))


def test_hom_minima_when_one_kernel_row_holds_the_minimum():
    # free over R_1, so the kernel is u * (residue code): its one lightest word is u * row 0
    rows = [0b11] + [0b1111 << (2 + 4 * i) for i in range(5)]
    span = module_span([tuple(RingElement(1, r >> c & 1) for c in range(22)) for r in rows])
    assert span.rank > LOW_ROWS
    assert assert_minima_match_the_walk(1, 22, span.basis) == (4, 2)


def random_module_spans(seed: int, count: int, k: int, min_rank: int, max_rank: int):
    """Module spans over R_k of F2 rank in min_rank..max_rank, from 1 to n + 1 random rows.

    Every other entry is a multiple of a random monomial, so ideal parts and
    non-free modules come up often.
    """
    rng = random.Random(seed)
    max_n = {1: 6, 2: 4, 3: 2, 4: 1}[k]
    out = []
    while len(out) < count:
        n = rng.randint(1, max_n)
        rows = [
            tuple(
                RingElement(k, rng.getrandbits(1 << k))
                * monomial(k, [j for j in range(1, k + 1) if rng.random() < 0.5 * (c % 2)])
                for c in range(n)
            )
            for _ in range(rng.randint(1, n + 1))
        ]
        span = module_span(rows)
        if min_rank <= span.rank <= max_rank:
            out.append(span)
    return out


def assert_orbit_split_matches_the_walk(span) -> None:
    k, n, basis = span.k, span.n, span.basis
    residues, lifts, kernel = residue_split(k, n, basis)
    walked = walked_hom_counts(k, n, basis)
    assert orbit_split_counts(k, n, basis) == walked
    assert hom_counts(k, n, basis) == walked
    assert_minima_match_the_walk(k, n, basis)
    # each coset starts at a word with coordinate 1 at its pivot p_i, and E_i is zero there
    size, words = unit_count(k), 1 << len(kernel)
    for residue, (start, rows) in zip(residues, _cosets(lifts, kernel, (1 << k) - 1)):
        shift = (residue & -residue).bit_length() - 1 >> k << k
        coordinate = (1 << (1 << k)) - 1 << shift
        assert start & coordinate == 1 << shift
        assert not any(row & coordinate for row in rows)
        assert F2Span(rows).rank == len(rows)
        words += size << len(rows)
    assert words == 1 << len(basis)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_orbit_split_matches_the_walk(k):
    spans = random_module_spans(40 + k, 12, k, 1, LOW_ROWS)
    spans += random_module_spans(50 + k, 6 if k < 4 else 2, k, LOW_ROWS + 1, 16)
    assert any(span.rank > LOW_ROWS for span in spans)
    if k <= K_MAX:
        for gens in (IDEAL_GENERATORS, SMALL_IDEAL_GENERATORS):  # no lifts: kernel only
            spans.append(code_span(QTCode.from_strings(k, [gens[k]], notation="generic")))
    spans.append(module_span([(RingElement(k, 0),) * 3]))  # the empty kernel of the zero span
    for span in spans:
        assert_orbit_split_matches_the_walk(span)


def oracle_residue_split(k: int, n: int, basis) -> tuple[list[int], list[int], list[int]]:
    """(residue words, lifts, kernel) of the split keyed on residue words, not on u_top.

    One RREF of the residue words, then one of residue(b) | (b & ideal) << n
    | b << (n + n*2^k), ideal the 2^k - 1 ideal bits at each residue pivot.
    """
    words = [residue_word(b, k, n) for b in basis]
    residues = list(F2Span(words).basis())
    coordinate = (1 << (1 << k)) - 2  # the ideal bits of coordinate 0
    ideal = sum(coordinate << ((r & -r).bit_length() - 1 << k) for r in residues)
    low, high = (1 << n) - 1, n + (n << k)
    joint = F2Span(r | (b & ideal) << n | b << high for r, b in zip(words, basis)).basis()
    lifts = [r >> high for r in joint if r & low]
    kernel = [r >> high for r in joint if not r & low]
    return residues, lifts, kernel


def assert_split_matches_the_oracle(span) -> None:
    """residue_split against the residue-word split, then every level of the u_top, u_j walk.

    At each level, with b the rank of its rows, f that of its kernel and
    E_i the coset spans, 2^f + 2^group * sum 2^dim(E_i) = 2^b.
    """
    k, n, basis = span.k, span.n, span.basis
    residues, lifts, kernel = residue_split(k, n, basis)
    words, *expected = oracle_residue_split(k, n, basis)
    assert [lifts, kernel] == expected
    top = (1 << k) - 1
    assert [residue_word(r >> top, k, n) for r in residues] == words  # residues on the top bit
    rows = list(basis)
    for a, group in [(top, top)] + [(1 << j, 1) for j in range(k)]:
        images, lifts, kernel = _split(k, n, rows, a)
        assert len(lifts) == len(images) and len(lifts) + len(kernel) == len(rows)
        cosets = list(_cosets(lifts, kernel, group))
        assert all(F2Span(e).rank == len(e) for _, e in cosets)
        assert 2 ** len(kernel) + sum(2 ** group * 2 ** len(e) for _, e in cosets) == 2 ** len(rows)
        rows = kernel


def assert_residue_distance(code: QTCode) -> None:
    residues = residue_split(code.k, code.n, code_span(code).basis)[0]
    if residues:
        assert min_weight(residues) == residue_code(code).min_distance(), code


def test_split_matches_the_oracle_on_every_fixture_row():
    rows = load_table_rows()
    assert len(rows) == 45
    for row in rows:
        code = build_row_code(row)
        assert_split_matches_the_oracle(code_span(code))
        assert_residue_distance(code)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_split_matches_the_oracle_on_random_modules(k):
    spans = random_module_spans(70 + k, 20, k, 1, LOW_ROWS)
    spans += random_module_spans(80 + k, 8 if k < 4 else 3, k, LOW_ROWS + 1, 16)
    spans.append(module_span([(RingElement(k, 0),) * 3]))
    if k <= K_MAX:
        spans.append(code_span(QTCode.from_strings(k, [IDEAL_GENERATORS[k]], notation="generic")))
    for span in spans:
        assert_split_matches_the_oracle(span)
    if k <= K_MAX:
        codes = random_codes(90 + k, 20, ks=(k,), max_rank=18)
    else:
        codes = [QTCode.from_strings(4, ["1+u1|u2u3"], notation="generic")]
    assert any(residue_split(c.k, c.n, code_span(c).basis)[0] for c in codes)
    for code in codes:
        assert_residue_distance(code)


def ideal_spans(seed: int, count: int, k: int, min_rank: int, max_rank: int):
    """Module spans over R_k inside the maximal ideal, so each is its own residue kernel.

    Every entry is a random element times a random monomial other than 1.
    """
    rng = random.Random(seed)
    lengths = {1: (11, 14), 2: (4, 6), 3: (2, 3), 4: (1, 1)}[k]
    out = []
    while len(out) < count:
        n = rng.randint(*lengths)
        rows = [
            tuple(
                RingElement(k, rng.getrandbits(1 << k))
                * monomial(k, [j for j in range(1, k + 1) if rng.random() < 0.5] or [k])
                for _ in range(n)
            )
            for _ in range(rng.randint(1, n + 1))
        ]
        span = module_span(rows)
        if min_rank <= span.rank <= max_rank:
            out.append(span)
    return out


def kernel_levels(k: int, n: int, kernel) -> tuple[list[int], list[tuple[list[int], list[int]]]]:
    """(fixed, levels): the kernel split at each u_j other than u_top, as hom_counts walks it.

    levels[j-1] = (lifts, rows of F_j) of _split at u_j over the rows of
    F_(j-1); the levels stop at F_k, or at an F_j of one block, whose
    basis is fixed.  At k = 1, u_1 is u_top, so there is no level.
    """
    rows, levels = kernel, []
    for j in range(k):
        if 1 << j == (1 << k) - 1:
            continue
        if len(rows) <= codes_module.LOW_ROWS:
            break
        _, lifts, rows = _split(k, n, rows, 1 << j)
        levels.append((lifts, rows))
    return rows, levels


def assert_kernel_pairs_match_the_walk(k: int, n: int, kernel) -> None:
    """Each level of kernel_levels against RingElement products and per-word weights.

    At level j the cosets' words, their partners y + u_j*y and F_j must
    split F_(j-1) exactly; then counts(F_(j-1)) = counts(F_j) + twice the
    cosets' counts.
    """
    fixed, levels = kernel_levels(k, n, kernel)
    assert len(levels) <= k
    weight = lambda flat: hom_weight_vec(unflatten_vec(flat, k, n))
    counts = Counter(map(weight, span_iter(fixed)))
    rows = kernel
    for j, (lifts, inner) in enumerate(levels):
        u = monomial(k, [j + 1])
        assert not any(times(k, n, y, u) for y in inner)
        image_rank = F2Span(times(k, n, y, u) for y in rows).rank
        assert len(lifts) == image_rank and len(inner) == len(rows) - image_rank
        cosets = list(_cosets(lifts, inner, 1))
        assert 2 ** len(inner) + 2 * sum(2 ** len(e) for _, e in cosets) == 2 ** len(rows)
        words = [start ^ y for start, e in cosets for y in span_iter(e)]
        partners = {y ^ times(k, n, y, u) for y in words}
        assert len(partners) == len(words) and partners.isdisjoint(words)
        assert partners | set(words) | set(span_iter(inner)) == set(span_iter(rows))
        counts.update({w: 2 * c for w, c in Counter(map(weight, words)).items()})
        rows = inner
    assert F2Span(rows).basis() == F2Span(fixed).basis()
    assert counts == walked_hom_counts(k, n, kernel)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_kernel_pairs_match_the_walk_above_one_block(k):
    spans = ideal_spans(60 + k, 3, k, LOW_ROWS + 1, 13)
    for span in spans:
        assert_kernel_pairs_match_the_walk(k, span.n, list(span.basis))
        _, lifts, kernel = residue_split(k, span.n, span.basis)
        levels = kernel_levels(k, span.n, kernel)[1]
        assert not lifts and (levels if k > 1 else not levels)  # split at least once above R_1
        assert hom_counts(k, span.n, span.basis) == walked_hom_counts(k, span.n, span.basis)


def test_kernel_pairs_on_benchmark_shaped_kernels():
    # residue kernels of [80,16..18] images over R_2 (ell=2, m=5) have rank 12 to 15
    for generator in ("a7728|92452", "010b8|4550c", "f7b77|e90d3"):
        span = code_span(QTCode.from_strings(2, [generator]))
        _, _, kernel = residue_split(2, span.n, span.basis)
        assert len(kernel) > LOW_ROWS
        assert hom_counts(2, span.n, kernel) == walked_hom_counts(2, span.n, kernel)
        assert hom_counts(2, span.n, span.basis) == walked_hom_counts(2, span.n, span.basis)


def test_kernel_pairs_level_is_empty_when_u_j_kills_the_kernel():
    # u_1 * R_2: every word is killed by u_1, so level 1 has no lifts
    rng = random.Random(5)
    u1 = monomial(2, [1])
    rows = [tuple(RingElement(2, rng.getrandbits(4)) * u1 for _ in range(6)) for _ in range(7)]
    span = module_span(rows)
    assert span.rank == 12
    fixed, levels = kernel_levels(2, 6, list(span.basis))
    assert levels[0] == ([], list(span.basis)) and levels[1][0]
    assert_kernel_pairs_match_the_walk(2, 6, list(span.basis))
    assert hom_counts(2, 6, span.basis) == walked_hom_counts(2, 6, span.basis)


def test_hom_counts_splits_an_r1_module_once(monkeypatch):
    # at k = 1, u_1 is u_top: the residue kernel is walked, not split again at u_1
    span = _span_of_flat(1, 12, [0b10 << 2 * i for i in range(12)] + [0b0101])
    assert span.rank == 13 and len(residue_split(1, 12, span.basis)[2]) > LOW_ROWS
    calls = []
    split = codes_module._split
    monkeypatch.setattr(codes_module, "_split", lambda *args: calls.append(args) or split(*args))
    codes_module.last_code.reset()
    counts = hom_counts(1, 12, span.basis)
    assert len(calls) == 1
    assert counts == walked_hom_counts(1, 12, span.basis)


def test_kernel_pairs_on_every_fixture_row(monkeypatch):
    # with no walk of one block, every fixture span is split and its kernel paired to F_k
    monkeypatch.setattr(codes_module, "LOW_ROWS", 0)
    rows = load_table_rows()
    assert len(rows) == 45
    for row in rows:
        span = code_span(build_row_code(row))
        assert hom_counts(span.k, span.n, span.basis) == walked_hom_counts(
            span.k, span.n, span.basis
        ), row.generator
        _, _, kernel = residue_split(span.k, span.n, span.basis)
        assert len(kernel_levels(span.k, span.n, kernel)[1]) == (span.k if span.k > 1 else 0)
        assert_kernel_pairs_match_the_walk(span.k, span.n, kernel)


def oracle_bound_check(code: QTCode) -> dict:
    """Per-word loop: homogeneous weight and residue test of every codeword."""
    span = code_span(code)
    n_bits = 1 << code.k
    mask = (1 << n_bits) - 1
    top_word = 1 << (n_bits - 1)
    g = gamma(code.k)
    d_hom = None
    d_nonkernel = None
    for flat in span_iter(span.basis):
        if flat == 0:
            continue
        w = 0
        residue_nonzero = False
        for i in range(span.n):
            word = (flat >> (i * n_bits)) & mask
            if word:
                w += 2 * g if word == top_word else g
                residue_nonzero |= bool(word & 1)
        if d_hom is None or w < d_hom:
            d_hom = w
        if residue_nonzero and (d_nonkernel is None or w < d_nonkernel):
            d_nonkernel = w
    res = residue_code(code)
    d_res = res.min_distance() if res.rank else None
    lower = g * d_res if d_res is not None else None
    upper = 2 * g * d_res if d_res is not None else None
    lemma_lower_holds = upper_ok = sound_lower_ok = None
    if d_res is not None and d_hom is not None:
        lemma_lower_holds = lower <= d_hom
        upper_ok = d_hom <= upper
        sound_lower_ok = d_nonkernel >= lower
    gen_bound = gen_ok = None
    if len(code.generators) == 1 and d_hom is not None:
        unit_coeffs = sum(sum(1 for c in block if c.is_unit) for block in code.generators[0])
        if unit_coeffs:
            gen_bound = 2 * g * unit_coeffs
            gen_ok = d_hom <= gen_bound
    return {
        "residue_distance": d_res,
        "hom_distance": d_hom,
        "nonkernel_distance": d_nonkernel,
        "lower_bound": lower,
        "upper_bound": upper,
        "generator_bound": gen_bound,
        "lemma_lower_holds": lemma_lower_holds,
        "ok": all(flag is not False for flag in (sound_lower_ok, upper_ok, gen_ok)),
    }


def test_bound_check_matches_per_word_loop():
    codes = random_codes(2024, 60) + random_codes(2025, 12, max_rank=14, min_rank=LOW_ROWS + 1)
    assert sum(code_span(c).rank > LOW_ROWS for c in codes) > 12
    codes.append(QTCode.from_strings(2, ["00|00"]))  # the zero code
    # past K_MAX: no byte weight table, coordinates weighed one at a time
    codes.append(QTCode.from_strings(4, ["1+u1|u2u3"], notation="generic"))
    for code in codes:
        assert bound_check(code) == oracle_bound_check(code), code


def test_bound_check_matches_per_word_loop_on_135_counterexample():
    code = QTCode.from_strings(2, ["135"])
    report = bound_check(code)
    assert report == oracle_bound_check(code)
    assert report["lemma_lower_holds"] is False and report["ok"] is True


def codes_past_k_max(seed: int, count: int) -> list[QTCode]:
    """Random one-block codes over R_4, each entry a random element times a random monomial."""
    rng = random.Random(seed)
    out = [
        QTCode.from_strings(4, ["1+u1|u2u3"], notation="generic"),
        QTCode.from_strings(4, ["u1u2,u3u4+u1u2u3u4"], lam="1+u1", notation="generic"),
    ]
    while len(out) < count:
        m = rng.randint(1, 2)
        block = tuple(
            RingElement(4, rng.getrandbits(16))
            * monomial(4, [j for j in range(1, 5) if rng.random() < 0.5])
            for _ in range(m)
        )
        out.append(QTCode(rng.choice(list(units(4))), 1, m, ((block,),)))
    return out


def test_minima_and_split_past_k_max_above_one_block():
    # no Gray image past K_MAX: hom_minima weighs the kernel and each coset as lists of weights
    codes = [code for code in codes_past_k_max(114, 8) if code_span(code).rank > LOW_ROWS]
    assert sorted(code_span(code).rank for code in codes) == [12, 16, 16]
    parts = []
    for code in codes:
        span = code_span(code)
        _, lifts, kernel = residue_split(4, span.n, span.basis)
        parts.append((len(lifts), len(kernel)))
        assert_minima_match_the_walk(4, span.n, span.basis)
    assert parts == [(1, 15), (0, 12), (0, 16)]  # every kernel minimum skips the zero word


def test_one_block_split_matches_the_walk():
    # one walk, kernel rows first: its first 2^f words are the residue kernel
    codes = [build_row_code(row) for row in load_table_rows()]
    for k in (1, 2, 3):
        codes += random_codes(40 + k, 10, ks=(k,), max_rank=LOW_ROWS)
    past_k_max = QTCode.from_strings(4, ["u1u2u3|u4"], notation="generic")  # span_blocks' list
    assert code_span(past_k_max).rank <= LOW_ROWS
    for code in codes + [past_k_max]:
        span = code_span(code)
        _, _, kernel = residue_split(span.k, span.n, span.basis)
        _, inside, outside = hom_split(span.k, span.n, span.basis)
        assert inside == walked_hom_counts(span.k, span.n, kernel), code
        assert outside == walked_hom_counts(span.k, span.n, span.basis) - Counter(inside), code


def test_bound_check_and_enumerator_agree_in_any_order_and_cache_state():
    # bound_check reads hom_weight_enumerator's split when last_code holds it: neither may matter
    codes = [build_row_code(row) for row in load_table_rows()]
    assert len(codes) == 45
    for k in (1, 2, 3):
        codes += random_codes(110 + k, 8, ks=(k,), max_rank=16)
    codes += codes_past_k_max(114, 8)
    ranks = {code_span(code).rank > LOW_ROWS for code in codes}
    assert ranks == {False, True}  # one block is walked once, a larger span split by orbits
    other = QTCode.from_strings(2, ["a7728|92452"])
    for code in codes:
        codes_module.last_code.reset()
        hom = hom_weight_enumerator(code)
        bounds = bound_check(code)
        assert hom.total() == 1 << code_span(code).rank
        assert bounds["hom_distance"] == hom.min_nonzero(), code
        codes_module.last_code.reset()
        assert bound_check(code) == bounds and hom_weight_enumerator(code) == hom, code
        assert hom_weight_enumerator(code) == hom and bound_check(code) == bounds, code
        hom_weight_enumerator(other)
        assert bound_check(code) == bounds, code
        bound_check(other)
        assert hom_weight_enumerator(code) == hom, code
        codes_module.last_code.reset()
        assert hom_weight_enumerator(code) == hom, code


def test_mutating_an_answer_leaves_the_next_call_alone():
    # last_code keeps the span and split: no answer may share a dict with them
    for k, generator in ((1, "10|11|3u"), (2, "a7728|92452")):  # one block, and above it
        code = QTCode.from_strings(k, [generator])
        span = code_span(code)
        codes_module.last_code.reset()
        hom, bounds = hom_weight_enumerator(code), bound_check(code)
        split = hom_split(k, span.n, span.basis)
        pairs, report = hom.pairs(), dict(bounds)
        parts = [dict(part) for part in split[1:]]
        hom._counts[0] = 7
        bounds["hom_distance"] = -1
        for part in split[1:]:
            part[0] = 7
        assert hom_weight_enumerator(code).pairs() == pairs, generator
        assert bound_check(code) == report, generator
        assert [dict(part) for part in hom_split(k, span.n, span.basis)[1:]] == parts, generator
