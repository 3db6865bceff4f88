from __future__ import annotations

import hashlib
import json
import random

import pytest

from oracles import (
    bit_pair_product, free_rank, grade_scaled_span, interleave, one, qc_equivalent
)
from rkcodes import codes
from rkcodes.analysis import build_row_code, load_table_rows
from rkcodes.codes import (
    BinaryCode,
    BudgetError,
    QTCode,
    WeightEnumerator,
    binary_image,
    binary_image_of_span,
    code_record,
    code_span,
    enumerate_codewords,
    flatten_vec,
    hom_weight_enumerator,
    is_qt_invariant,
    module_span,
    qt_generator_matrix,
    residue_code,
    span_shift_invariant,
    unflatten_vec,
)
from rkcodes.gf2 import F2Span
from rkcodes.gf2 import self_orthogonal as gf2_self_orthogonal
from rkcodes.polyqt import parse_block
from rkcodes.ring import RingElement, monomial, zero

U1 = RingElement(1, 0b10)
THREE = RingElement(1, 0b11)


def image_params(code: QTCode):
    img = binary_image(code)
    return img.length, img.rank, img.min_distance()


@pytest.mark.parametrize("k", [1, 2, 3])
def test_module_span_and_module_image_words_read_one_list_of_module_words(k, monkeypatch):
    rng, n = random.Random(k), 3
    rows = [
        flatten_vec([RingElement(k, rng.getrandbits(1 << k)) for _ in range(n)]) for _ in range(2)
    ]
    seen, module_words = [], codes._module_words

    def recording(*args):
        seen.append(module_words(*args))
        return seen[-1]

    monkeypatch.setattr(codes, "_module_words", recording)
    span = codes._span_of_flat(k, n, rows)
    image_words = codes.module_image_words(k, n, rows)
    # all u_A * row, row-major, by the bit-pair product
    expected = [
        flatten_vec([bit_pair_product(u, e) for e in unflatten_vec(row, k, n)])
        for row in rows
        for u in (monomial(k, [i + 1 for i in range(k) if a >> i & 1]) for a in range(1 << k))
    ]
    assert seen == [expected, expected]
    assert span.basis == F2Span(expected).basis()
    assert image_words == codes._map_coordinates(k, n, expected)


def test_qt_generator_matrix_display_form():
    code = QTCode.from_strings(2, ["11"])
    ones = one(2)
    assert qt_generator_matrix(code) == ((ones, ones), (ones, ones))
    code = QTCode.from_strings(1, ["1u|30|u3"], lam="3")
    rows = qt_generator_matrix(code)
    assert len(rows) == 2 and all(len(r) == 6 for r in rows)
    # second row: each block twist-shifted once
    g = parse_block("1u", 1)
    assert rows[1][:2] == (THREE * g[1], g[0])


def display_codes() -> list[QTCode]:
    """The 45 fixture rows, then 30 seeded random QT codes at each of k = 1, 2, 3."""
    codes = [build_row_code(row) for row in load_table_rows()]
    rng = random.Random(11)
    for k in (1, 2, 3):
        size = 1 << (1 << k)
        for _ in range(30):
            lam = RingElement(k, rng.randrange(1, size, 2))
            ell, m = rng.randint(1, 3), rng.randint(1, 5)
            gens = tuple(
                tuple(tuple(RingElement(k, rng.randrange(size)) for _ in range(m)) for _ in range(ell))
                for _ in range(rng.randint(1, 2))
            )
            codes.append(QTCode(lam, ell, m, gens))
    return codes


# sha256 of the JSON of each display_codes() matrix's coefficient words, recorded
# when qt_generator_matrix deinterleaved the span rows
PINNED_DISPLAY_MATRICES = "9df36de73a2cce6202afdda7ec9b9db46110758c17904efb2105a89074f6ca60"


def test_qt_generator_matrix_pinned():
    matrices = [
        [[e.coeffs for e in row] for row in qt_generator_matrix(code)] for code in display_codes()
    ]
    assert len(matrices) == 135
    blob = json.dumps(matrices).encode()
    assert hashlib.sha256(blob).hexdigest() == PINNED_DISPLAY_MATRICES


def test_interleave_roundtrip():
    blocks = (parse_block("1u", 1), parse_block("30", 1), parse_block("u3", 1))
    vec = interleave(blocks)
    assert tuple(vec[b::3] for b in range(3)) == blocks


def test_qtcode_validation():
    with pytest.raises(ValueError):
        QTCode.from_strings(1, ["0u|0uu"], lam="3")  # ragged blocks
    with pytest.raises(ValueError):
        QTCode.from_strings(1, ["0u|0u"], lam="u")  # non-unit twist
    with pytest.raises(ValueError):
        QTCode.from_strings(1, ["0u|0u"], lam="3", ell=3)  # wrong block count
    code = QTCode.from_strings(1, ["0u|0u|uu"], lam="3", ell=3, m=2)
    assert (code.k, code.n) == (1, 6)
    assert code.generator_strings() == ["0u|0u|uu"]


def test_enumerate_codewords_counts_and_values():
    zero_code = QTCode.from_strings(2, ["00"])
    assert list(enumerate_codewords(zero_code)) == [(zero(2), zero(2))]

    code = QTCode.from_strings(1, ["0u|0u|uu"], lam="3")
    z, u = zero(1), U1
    expected = {
        interleave(((z, z), (z, z), (z, z))),
        interleave(((z, u), (z, u), (u, u))),
        interleave(((u, z), (u, z), (u, u))),
        interleave(((u, u), (u, u), (z, z))),
    }
    assert set(enumerate_codewords(code)) == expected

    repetition = QTCode.from_strings(2, ["11"])
    assert len(list(enumerate_codewords(repetition))) == 16


def test_is_qt_invariant():
    for gen, k, lam in (("0u|0u|uu", 1, "3"), ("231|f87|bc7", 2, "1"), ("ceec4e6c", 2, "1")):
        assert is_qt_invariant(QTCode.from_strings(k, [gen], lam=lam))
    # raw span of a single row without shift closure is not shift invariant
    row = (one(1), zero(1), zero(1), zero(1))
    assert not span_shift_invariant(module_span([row]), one(1), 1)
    # cyclic repetition code is QC for any index dividing n
    repetition = code_span(QTCode.from_strings(2, ["1111"]))
    for ell in (1, 2, 4):
        assert span_shift_invariant(repetition, one(2), ell)


def test_binary_image_examples():
    assert image_params(QTCode.from_strings(2, ["11"])) == (16, 4, 8)
    assert image_params(QTCode.from_strings(1, ["0u|0u|uu"], lam="3")) == (12, 2, 8)
    assert image_params(QTCode.from_strings(2, ["231|f87|bc7"])) == (72, 8, 32)


def test_min_distance_of_36_11_12_row():
    assert image_params(QTCode.from_strings(1, ["uuuu11|uuu103|u1u311"], lam="3")) == (36, 11, 12)


def test_zero_code_has_no_min_distance():
    img = binary_image(QTCode.from_strings(2, ["00"]))
    assert img.rank == 0
    with pytest.raises(ValueError):
        img.min_distance()
    assert img.weight_enumerator() == WeightEnumerator({0: 1})


def test_budget_errors():
    code = QTCode.from_strings(2, ["11"])  # rank 4
    img = binary_image(code)  # building the image enumerates nothing
    assert img.rank == 4
    with pytest.raises(BudgetError):
        img.weight_enumerator(budget=3)
    with pytest.raises(BudgetError):
        list(enumerate_codewords(code, budget=3))
    with pytest.raises(BudgetError):
        img.min_distance(budget=3)


def test_binary_code_codewords_are_the_span_within_the_budget():
    img = binary_image(QTCode.from_strings(1, ["0u|0u|uu"], lam="3"))  # [12, 2, 8]
    words = list(img.codewords())
    assert len(words) == len(set(words)) == 1 << img.rank
    assert set(words) == {a ^ b for a in (0, img.rows[0]) for b in (0, img.rows[1])}
    with pytest.raises(BudgetError):
        img.codewords(budget=img.rank - 1)


def test_from_strings_needs_a_generator():
    with pytest.raises(ValueError, match="^need at least one generator tuple$"):
        QTCode.from_strings(2, [])


def test_negative_budget_is_a_value_error():
    code = QTCode.from_strings(2, ["11"])
    message = r"^--budget must be at least 0, got -1$"
    with pytest.raises(ValueError, match=message):
        binary_image(code).min_distance(budget=-1)
    with pytest.raises(ValueError, match=message):
        hom_weight_enumerator(code, budget=-1)


def test_weight_enumerators():
    code = QTCode.from_strings(1, ["0u0u|0u0u|uuuu"], lam="3")
    img = binary_image(code)
    assert str(img.weight_enumerator()) == "1 + 3z^16"
    # full ambient ring, one coordinate: RM(1,3)
    span = module_span([(one(2),)])
    ambient = binary_image_of_span(span)
    assert str(ambient.weight_enumerator()) == "1 + 14z^4 + z^8"
    enum = img.weight_enumerator()
    assert enum[0] == 1
    assert enum.total() == 1 << img.rank
    assert enum.min_nonzero() == img.min_distance()


def test_hom_and_hamming_enumerators_agree():
    samples = (
        (1, "0u|0u|uu", "3"),
        (1, "001|113|1u1", "3"),
        (2, "246", "1"),
        (2, "f539|b579", "1"),
    )
    for k, gen, lam in samples:
        code = QTCode.from_strings(k, [gen], lam=lam)
        assert hom_weight_enumerator(code) == binary_image(code).weight_enumerator()


def test_self_orthogonality():
    assert binary_image(QTCode.from_strings(2, ["135"])).is_self_orthogonal()
    assert not BinaryCode.from_rows(2, [0b01]).is_self_orthogonal()
    # psi_2 of the full ambient space: rank 4n, length 8n, self-dual Type II
    for n in (1, 2, 3):
        rows = [tuple(one(2) if j == i else zero(2) for j in range(n)) for i in range(n)]
        ambient = binary_image_of_span(module_span(rows))
        assert (ambient.length, ambient.rank, ambient.min_distance()) == (8 * n, 4 * n, 4)
        assert 2 * ambient.rank == ambient.length and ambient.is_self_orthogonal()  # self-dual
        assert all(w % 4 == 0 for w, _ in ambient.weight_enumerator().pairs())


def test_k2_images_are_self_orthogonal_with_weights_mod_4():
    rng = random.Random(31)
    for _ in range(20):
        n = rng.randrange(1, 5)
        rows = [tuple(RingElement(2, rng.randrange(16)) for _ in range(n))
                for _ in range(rng.randrange(1, 3))]
        img = binary_image_of_span(module_span(rows))
        assert img.is_self_orthogonal() and gf2_self_orthogonal(img.rows)  # the products as oracle
        assert all(w % 4 == 0 for w, _ in img.weight_enumerator().pairs())


@pytest.mark.parametrize(
    "k, params, self_orthogonal",
    [(1, (2, 2, 1), False), (2, (8, 4, 4), True), (3, (128, 8, 64), True)],
)
def test_gray_images_of_the_ring(k, params, self_orthogonal):
    # the code R_k of length 1: its image is spanned by the Gray images of the ring
    img = binary_image_of_span(module_span([(one(k),)]))
    assert (img.length, img.rank, img.min_distance()) == params
    assert img.is_self_orthogonal() is gf2_self_orthogonal(img.rows) is self_orthogonal


def random_module_rows(rng: random.Random, k: int, max_n: int) -> list[tuple[RingElement, ...]]:
    n = rng.randint(1, max_n)
    return [
        tuple(RingElement(k, rng.randrange(1 << (1 << k))) for _ in range(n))
        for _ in range(rng.randint(1, 2))
    ]


def test_k3_images_are_self_orthogonal():
    # as at k = 2: each image lies in a direct sum of copies of the image of R_3
    rng = random.Random(43)
    for _ in range(25):
        img = binary_image_of_span(module_span(random_module_rows(rng, 3, 2)))
        assert img.is_self_orthogonal() and gf2_self_orthogonal(img.rows)


def test_r1_self_orthogonality_is_that_of_the_image():
    # Euclidean inner products over R_1 on the F2 basis, against the image's binary ones
    rng = random.Random(41)
    seen = set()
    for _ in range(60):
        span = module_span(random_module_rows(rng, 1, 5))
        rows = [unflatten_vec(flat, 1, span.n) for flat in span.basis]
        ring_side = all(
            sum((a * b for a, b in zip(x, y)), zero(1)) == zero(1) for x in rows for y in rows
        )
        img = binary_image_of_span(span)
        assert img.is_self_orthogonal() is gf2_self_orthogonal(img.rows) is ring_side
        seen.add(ring_side)
    assert seen == {True, False}


def test_qc_index_check():
    cyclic = binary_image(QTCode.from_strings(2, ["088"]))
    assert cyclic.qc_index_check(8)
    qc2 = binary_image(QTCode.from_strings(2, ["2c|2c"]))
    assert qc2.qc_index_check(16)
    with pytest.raises(ValueError):
        cyclic.qc_index_check(7)  # does not divide 24
    assert not BinaryCode.from_rows(4, [0b0001]).qc_index_check(1)


def test_free_rank_check():
    lam = one(1)
    assert free_rank(parse_block("1", 1), 3, lam) == 3
    assert free_rank(parse_block("11", 1), 3, lam) == 2  # 1 + x | x^3 - 1
    code = QTCode(lam, 1, 3, ((tuple(parse_block("110", 1)),),))
    assert binary_image(code).rank == 4  # 2^k * rank
    assert free_rank(parse_block("u1", 1), 2, lam) is None  # x + u does not divide x^2 - 1


def test_residue_code():
    code = QTCode.from_strings(2, ["231|f87|bc7"])
    res = residue_code(code)
    assert res.length == 9
    assert res.min_distance() == 6
    zero_res = residue_code(QTCode.from_strings(1, ["0u|0u|uu"], lam="3"))
    assert zero_res.rank == 0


def test_qc_equivalent_requires_odd_coindex():
    # at even coindex the substituted generators need not span the grade-scaled code
    code = QTCode.from_strings(1, ["10|11|3u"], lam="3")
    assert grade_scaled_span(code).basis != code_span(qc_equivalent(code)).basis


def test_qc_equivalent_codeword_sets_match():
    code = QTCode.from_strings(1, ["001|113|1u1"], lam="3")
    qc = qc_equivalent(code)
    assert qc.lam == one(1) and is_qt_invariant(qc)
    assert grade_scaled_span(code).basis == code_span(qc).basis


def test_code_record_schema():
    rec = code_record(QTCode.from_strings(2, ["11"]))
    assert rec["k"] == 2 and rec["lambda"] == "1"
    assert rec["generators"] == ["11"]
    assert rec["image"] == {
        "length": 16,
        "dimension": 4,
        "min_distance": 8,
        "weight_enumerator": [[0, 1], [8, 14], [16, 1]],
    }
    assert rec["flags"] == {"self_orthogonal": True, "qc_index": 8}


def test_bound_lemma_on_samples():
    # upper bound always; lower bound over codewords with nonzero residue
    from rkcodes.ring import gamma, hom_weight_vec

    for k, gen, lam in ((2, "135", "1"), (2, "019", "1"), (1, "10|11|3u", "3")):
        code = QTCode.from_strings(k, [gen], lam=lam)
        res = residue_code(code)
        if res.rank == 0:
            continue
        d_res = res.min_distance()
        assert binary_image(code).min_distance() <= 2 * gamma(k) * d_res
        nonkernel = [
            hom_weight_vec(word)
            for word in enumerate_codewords(code)
            if any(e.residue() for e in word)
        ]
        assert min(nonkernel) >= gamma(k) * d_res
