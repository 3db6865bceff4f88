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
from math import gcd
from typing import Callable

import pytest

from oracles import oracle_spanning_rows, unit_mul_permutation, units
from rkcodes import codes as codes_module
from rkcodes import gf2
from rkcodes.analysis import _BlockParts, build_row_code, load_table_rows
from rkcodes.codes import (
    BinaryCode,
    QTCode,
    binary_image,
    binary_image_of_span,
    code_span,
    hom_minima,
    image_parts,
    module_image,
    module_span,
    residue_split,
)
from rkcodes.gf2 import (
    LOW_ROWS,
    F2Span,
    _systematic,
    info_set_min_weight,
    information_sets,
    least_weight,
    min_weight,
    span_blocks,
    span_iter,
    span_min_weight,
    weight_counts,
    weight_divisor,
)
from rkcodes.graymap import GrayMap
from rkcodes.ring import RingElement, gamma, unit_count

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
        t, stop = set_count(basis), d - weight_divisor(basis) + 1
        # a search stops once t*w + j, rounded up to a multiple of the weight
        # divisor D, reaches d, that is once t*w + j >= d - D + 1, after j < t
        # bases have weighed level w
        inside_a_level += len(walks) == walked and stop % t != 0 and stop > 2 * t
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


def rank_11_fixture_walks(monkeypatch, generator: str, divisor: int) -> list[int]:
    """Ranks walked while info_set_min_weight finds d of a rank-11 fixture image."""
    (row,) = [row for row in load_table_rows() if row.generator == generator]
    img = binary_image(build_row_code(row))
    assert img.rank == 11 and set_count(img.rows) == 3
    assert weight_divisor(img.rows) == divisor
    walks = counted_walks(monkeypatch)
    assert info_set_min_weight(img.rows) == row.d
    return walks


def test_rank_11_even_fixture_image_reaches_d_without_a_walk(monkeypatch):
    # d = 12, D = 2: the stop t*w + j >= 11 leaves 5 passes, about 1,775 walk
    # words, under the 2^11 of the walk
    assert rank_11_fixture_walks(monkeypatch, "uuuu11|uuu103|u1u311", 2) == []


@pytest.mark.parametrize("generator", ["uuu1013|uu01033|uu11101"])
def test_rank_11_fixture_images_still_walk(monkeypatch, generator):
    # d = 16, D = 4: the stop t*w + j >= 13 leaves 7 passes, about 2,782 walk
    # words, over the 2^11 of the walk
    assert rank_11_fixture_walks(monkeypatch, generator, 4) == [11]


def even_basis(rng: random.Random, rank: int) -> tuple[int, ...]:
    """Basis of a random even code of the given rank and length 2-3 times it."""
    length = rng.randint(2 * rank, 3 * rank)
    span = F2Span()
    while span.rank < rank:
        v = rng.getrandbits(length)
        span.add(v ^ (v.bit_count() & 1))  # bit 0 evens the weight
    return span.basis()


def self_orthogonal_r1_images(rng: random.Random, count: int, ranks: range) -> list:
    """Bases of self-orthogonal Gray images of random R_1-modules with a rank in ranks.

    Each module is a direct sum of fixture codes over R_1 with self-orthogonal
    images, its coordinates permuted and scaled by random units.  The image's
    inner product of x and y sums, over coordinates i, a function of x_i*y_i,
    and a unit u scales x_i*y_i by u^2 = 1, so neither moves it.
    """
    pieces = [
        oracle_spanning_rows(code)
        for code in (build_row_code(row) for row in load_table_rows() if row.k == 1)
        if binary_image(code).is_self_orthogonal()
    ]
    zero, unit_list = RingElement(1, 0), list(units(1))
    out = []
    while len(out) < count:
        chosen = [rng.choice(pieces) for _ in range(rng.randint(2, 4))]
        n = sum(len(piece[0]) for piece in chosen)
        rows, at = [], 0
        for piece in chosen:
            width = len(piece[0])
            rows += [(zero,) * at + row + (zero,) * (n - at - width) for row in piece]
            at += width
        order = rng.sample(range(n), n)
        scale = [rng.choice(unit_list) for _ in range(n)]
        rows = [tuple(scale[j] * row[order[j]] for j in range(n)) for row in rows]
        img = binary_image_of_span(module_span(rows))
        if img.rank in ranks:
            assert img.is_self_orthogonal()
            out.append(img.rows)
    return out


def test_info_set_min_weight_matches_walk_on_divisible_codes():
    # ranks 11..20: random even codes, R_1 images (self-orthogonal and not)
    # and R_2 images; between them they read every divisor 1, 2 and 4
    rng = random.Random(1118)
    ranks = range(LOW_ROWS + 1, 21)
    bases = [even_basis(rng, rank) for rank in ranks for _ in range(2)]
    bases += [binary_image(code).rows for code in random_qt_codes(rng, 1, 12, ranks)]
    bases += self_orthogonal_r1_images(rng, 8, ranks)
    bases += [binary_image(code).rows for code in random_qt_codes(rng, 2, 12, ranks)]
    assert {weight_divisor(basis) for basis in bases} == {1, 2, 4}
    for basis in bases:
        assert info_set_min_weight(basis) == span_min_weight(basis), basis


def test_weight_divisor_divides_every_weight_of_the_span():
    rng = random.Random(1119)
    ranks = range(1, 13)
    bases = [even_basis(rng, rank) for rank in ranks]
    bases += [pooled_basis(rng, rank) for rank in ranks]
    bases += self_orthogonal_r1_images(rng, 6, ranks)
    for k in (1, 2, 3):
        bases += [binary_image(code).rows for code in random_qt_codes(rng, k, 12, ranks)]
    bases += [binary_image(build_row_code(row)).rows for row in load_table_rows()]
    for basis in bases:
        weights = {w.bit_count() for w in span_iter(basis)}
        # the largest of 1, 2, 4 that divides them all
        assert weight_divisor(basis) == gcd(4, *weights), basis


def test_weight_divisor_reads_4_2_and_1():
    r2_codes = random_qt_codes(random.Random(1120), 2, 30, range(1, 21))
    assert {weight_divisor(binary_image(code).rows) for code in r2_codes} == {4}
    assert weight_divisor((0b1111, 0b110000)) == 2  # even, not doubly even
    assert weight_divisor((0b1111, 0b1111000)) == 2  # doubly-even rows, odd AND
    assert weight_divisor((0b11, 0b1100, 0b10000)) == 1  # an odd row


@pytest.mark.parametrize("rank", [0, 1, LOW_ROWS, LOW_ROWS + 2])
def test_min_weight_and_counts_on_a_coset(rank):
    rng = random.Random(rank)
    basis = F2Span(rng.getrandbits(30) for _ in range(rank + 1)).basis()
    start, rows = basis[-1], basis[:-1]
    coset = [start ^ w for w in span_iter(rows)]
    # the Hamming weights of span_blocks' coset blocks, reduced as the ring side reduces its own
    blocks = [list(map(int.bit_count, block)) for block in span_blocks(rows, start)]
    assert weight_counts(blocks, 30) == Counter(map(int.bit_count, coset))
    assert least_weight(blocks, 30) == min(map(int.bit_count, coset))
    if rows:
        assert min_weight(rows) == min(w.bit_count() for w in span_iter(rows) if w)


# --- information sets equivalent under the unit group -------------------------------------


def image_permutations(k: int) -> list[tuple[int, ...]]:
    """The Gray coordinate permutation of every unit of R_k, by column match over R_k."""
    gray = GrayMap(k)
    return [unit_mul_permutation(gray, u) for u in units(k)]


def coordinate_permutation(perm: tuple[int, ...], n: int) -> Callable[[int], int]:
    """perm applied to each of the n coordinates of a Gray image."""
    size = len(perm)
    return lambda c: c // size * size + perm[c % size]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_image_parts_are_mapped_onto_copies_disjoint_sets(k):
    n, size = 3, unit_count(k)
    moves = [coordinate_permutation(perm, n) for perm in image_permutations(k)]
    parts = image_parts(k, n)
    assert [copies for _, copies in parts] == [size >> i for i in range(len(parts))]
    for columns, copies in parts:
        part = [c for c in range(n * size) if columns >> c & 1]
        assert len(part) * copies == n * size
        images = {frozenset(map(move, part)) for move in moves}
        assert len(images) == copies
        assert set().union(*images) == set(range(n * size))  # disjoint: sizes add up


def random_module_codes(rng: random.Random, k: int, count: int, ranks: range, ideal: bool) -> list:
    """Random QT codes over R_k with lambda != 1 and two generator tuples, spans of a rank in
    ranks; with ideal, every entry is a nonunit, so the code lies in the maximal ideal."""
    max_n = {1: 16, 2: 5, 3: 3}[k]
    size = 1 << (1 << k)
    alphabet = range(0, size, 2) if ideal else range(size)
    twists = [u for u in units(k) if u.coeffs != 1]
    out = []
    while len(out) < count:
        ell = rng.randint(1, max_n)
        m = rng.randint(1, max_n // ell)
        gens = tuple(
            tuple(tuple(RingElement(k, rng.choice(alphabet)) for _ in range(m)) for _ in range(ell))
            for _ in range(2)
        )
        code = QTCode(rng.choice(twists), ell, m, gens)
        if code_span(code).rank in ranks:
            out.append(code)
    return out


@pytest.mark.parametrize("k, ideal", [(1, False), (1, True), (2, False), (2, True), (3, False), (3, True)])
def test_image_min_distance_by_unit_parts_matches_walk(k, ideal):
    rng = random.Random(f"unit parts {k} {ideal}")
    chosen = []
    for code in random_module_codes(rng, k, 10, range(LOW_ROWS + 1, 17), ideal):
        img = binary_image(code)
        assert img.parts == image_parts(k, code.n)
        assert img.min_distance() == span_min_weight(img.rows), code
        sets, copies, _ = information_sets(img.rows, img.parts, max(gamma(k), weight_divisor(img.rows)))
        chosen.append((len(sets), copies))
    assert any(copies > 1 for _, copies in chosen)  # a part was chosen


def test_a_part_holding_one_set_reaches_d():
    # [80,18,16]: the part of 2 units per coordinate holds one set, standing for 4
    img = binary_image(QTCode.from_strings(2, ["010b8|4550c"]))
    sets, copies, _ = information_sets(img.rows, img.parts, img.divisor)
    assert (img.length, img.rank, len(sets), copies) == (80, 18, 1, 4)
    assert img.min_distance() == span_min_weight(img.rows) == 16


def test_a_span_that_walks_builds_no_set(monkeypatch):
    # the rank-11 fixture image of test_rank_11_fixture_images_still_walk
    (row,) = [row for row in load_table_rows() if row.generator == "uuu1013|uu01033|uu11101"]
    img = binary_image(build_row_code(row))
    built = []
    monkeypatch.setattr(gf2, "_systematic", lambda *args: built.append(args))
    walks = counted_walks(monkeypatch)
    assert img.min_distance() == row.d
    assert (built, walks) == ([], [11])


def test_only_binary_image_carries_parts(monkeypatch):
    # module images carry the unit parts: of a code, of a search candidate, of a residue kernel
    code = QTCode.from_strings(2, ["f7b77|e90d3"])
    img = binary_image(code)
    parts_of = _BlockParts(2, code.lam, 2, 5, "hex")
    digits = bytes.fromhex("0f070b0707" "0e09000d03")
    candidate = parts_of.image(digits, parts_of.blocks(digits))
    made = []

    def recorded(*args):
        made.append(module_image(*args))
        return made[-1]

    monkeypatch.setattr(codes_module, "module_image", recorded)
    span = code_span(code)
    kernel = residue_split(2, span.n, span.basis)[2]
    assert span.rank > LOW_ROWS and kernel
    hom_minima(2, span.n, span.basis)
    assert [m.rank for m in made] == [len(kernel)]
    for module in (img, candidate, made[0]):
        assert (module.divisor, module.parts) == (gamma(2), image_parts(2, code.n))
    assert candidate == img
    # an image of a span that need not be a module, and a bare code, carry none
    plain = BinaryCode.from_rows(img.length, img.rows)
    of_span = binary_image_of_span(code_span(code))
    assert (of_span.parts, plain.parts) == ((), ())
    assert (img.divisor, of_span.divisor, plain.divisor) == (4, 4, 1)
    # structured and plain codes with the same rows are equal, and hash alike
    assert img == plain == of_span
    assert len({img, plain, of_span}) == 1
    assert repr(img) == repr(plain)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_image_divisor_is_gamma(k):
    rng = random.Random(f"divisor {k}")
    for code in random_qt_codes(rng, k, 8, range(1, LOW_ROWS + 1)):
        img = binary_image(code)
        assert img.divisor == gamma(k)
        assert all(w.bit_count() % gamma(k) == 0 for w in span_iter(img.rows)), code


def test_image_self_orthogonality_matches_the_inner_products_on_every_fixture_row():
    for row in load_table_rows():
        img = binary_image(build_row_code(row))
        assert img.is_self_orthogonal() is gf2.self_orthogonal(img.rows), row.generator
