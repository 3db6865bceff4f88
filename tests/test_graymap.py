from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import apply_permutation, one, top, unit_mul_permutation, units, zero
from rkcodes import graymap
from rkcodes.codes import ModuleSpan, QTCode, binary_image, binary_image_of_span, flatten_vec
from rkcodes.gf2 import bits_to_str, rotate_bits
from rkcodes.graymap import GrayMap, NotInImageError
from rkcodes.ring import (
    K_MAX,
    RingElement,
    elements,
    hom_weight_vec,
    parse_element,
)

# frozen convention for k=3 (bit-slice rows, top -> all-ones)
K3_TABLE_SHA256 = "e3119830e43e6e3beb1db964e11ad7fc4118168bf7ca8bbb3c3a8ea622f3256a"


def img_str(gray: GrayMap, text: str) -> str:
    e = parse_element(text, gray.k, "generic")
    return bits_to_str(gray.element_image(e), gray.image_len)


def test_pinned_basis_images_k2():
    g = GrayMap(2)
    assert img_str(g, "u1u2") == "11111111"
    assert img_str(g, "u1") == "11110000"
    assert img_str(g, "u2") == "11001100"
    assert img_str(g, "1") == "10101010"


def test_pinned_basis_images_k1():
    g = GrayMap(1)
    assert img_str(g, "u1") == "11"
    assert img_str(g, "1") == "01"
    assert img_str(g, "1+u1") == "10"
    assert img_str(g, "0") == "00"


def test_k3_rows_weights_and_golden_hash():
    g = GrayMap(3)
    assert g.image_len == 128
    for idx, row in enumerate(g.basis_rows):
        if idx == (1 << 3) - 1:
            assert row == (1 << 128) - 1
        else:
            assert row.bit_count() == 64
    blob = ",".join(format(r, "x") for r in g.basis_rows).encode()
    assert hashlib.sha256(blob).hexdigest() == K3_TABLE_SHA256


def test_every_nonzero_nontop_image_has_weight_gamma_k3():
    g = GrayMap(3)
    weights = {g.element_image(e).bit_count() for e in elements(3)
               if e and not e.is_top}
    assert weights == {64}


def test_isometry_exhaustive():
    for k in (1, 2):
        g = GrayMap(k)
        for a in elements(k):
            for b in elements(k):
                hamming = (g.element_image(a) ^ g.element_image(b)).bit_count()
                assert hamming == (a + b).hom_weight()


def test_linearity():
    for k in (1, 2):
        g = GrayMap(k)
        for a in elements(k):
            for b in elements(k):
                assert g.element_image(a + b) == g.element_image(a) ^ g.element_image(b)
    g3 = GrayMap(3)
    rng = random.Random(5)
    for _ in range(200):
        a = RingElement(3, rng.randrange(256))
        b = RingElement(3, rng.randrange(256))
        assert g3.element_image(a + b) == g3.element_image(a) ^ g3.element_image(b)


def test_full_ring_image_weight_distribution():
    # bijection onto RM(1, 2^k - 1): 1 + (2^(2^k)-2) z^gamma + z^(2 gamma)
    for k in (1, 2, 3):
        g = GrayMap(k)
        images = [g.element_image(e) for e in elements(k)]
        assert len(set(images)) == len(images)
        counts: dict[int, int] = {}
        for im in images:
            counts[im.bit_count()] = counts.get(im.bit_count(), 0) + 1
        half = g.image_len // 2
        assert counts == {0: 1, half: (1 << (1 << k)) - 2, g.image_len: 1}


def test_vector_image_and_example():
    g = GrayMap(2)
    vec = (parse_element("c", 2), parse_element("8", 2))  # (uv+v, uv)
    assert bits_to_str(g.image(vec), 16) == "0011001111111111"
    e = parse_element("c", 2)  # uv+v
    assert bits_to_str(g.element_image(e), 8) == "00110011"
    assert g.element_image(e).bit_count() == e.hom_weight()
    assert g.image((zero(2), zero(2), zero(2))) == 0


def test_preimage_examples_and_roundtrip():
    g = GrayMap(2)
    assert g.element_preimage(0xFF) == top(2)
    assert g.element_preimage(0) == zero(2)
    # "01010101" (coordinate 0 first) is the complement of psi(1)
    assert g.element_preimage(0xAA) == parse_element("1+u1u2", 2, "generic")
    for e in elements(2):
        assert g.element_preimage(g.element_image(e)) == e
    vec = (parse_element("b", 2), parse_element("3", 2))
    assert g.preimage(g.image(vec), 2) == vec


def test_preimage_rejects_blocks_outside_rm():
    g = GrayMap(2)
    with pytest.raises(NotInImageError):
        g.element_preimage(0b00000001)  # weight-1 word is not in RM(1,3)
    with pytest.raises(NotInImageError):
        g.element_preimage(1 << 9)  # too wide


def test_preimage_rejects_bits_past_the_last_block():
    g = GrayMap(1)
    assert g.preimage(0b1111, 2) == (RingElement(1, 0b10), RingElement(1, 0b10))
    with pytest.raises(NotInImageError):
        g.preimage(0b1111, 1)  # the high block would be dropped
    with pytest.raises(NotInImageError):
        GrayMap(2).preimage(1 << 16, 2)


def test_unit_mul_permutation_identity_and_swap():
    for k in (1, 2):
        g = GrayMap(k)
        assert unit_mul_permutation(g, one(k)) == tuple(range(g.image_len))
    assert unit_mul_permutation(GrayMap(1), RingElement(1, 0b11)) == (1, 0)


def test_unit_mul_permutation_all_units_k2():
    g = GrayMap(2)
    for lam in units(2):
        perm = unit_mul_permutation(g, lam)
        assert sorted(perm) == list(range(8))
        for a in elements(2):
            assert apply_permutation(perm, g.element_image(a)) == g.element_image(lam * a)


def test_unit_mul_permutation_all_units_k3():
    # the columns are matched over all of R_3, so a permutation found is one for every element
    g = GrayMap(3)
    for lam in units(3):
        assert sorted(unit_mul_permutation(g, lam)) == list(range(128))


def test_unit_mul_permutation_rejects_bad_inputs(monkeypatch):
    # independent, but columns 4..7 coincide
    monkeypatch.setitem(graymap._PINNED_ROWS, 2, (0x01, 0x02, 0x04, 0x08))
    assert unit_mul_permutation(GrayMap(2), one(2)) is None


@pytest.mark.parametrize("k", [0, K_MAX + 1])
def test_k_max_enforced(k):
    message = rf"^Gray images exist for k in 1\.\.3, got k={k}$"
    with pytest.raises(ValueError, match=message):
        GrayMap(k)
    if k > K_MAX:  # a code over R_4 builds, but has no Gray image
        with pytest.raises(ValueError, match=message):
            binary_image(QTCode.from_strings(k, ["1+u1|u2u3"], notation="generic"))


def test_shift_commutation_with_image():
    # psi of the cyclic shift equals the image shifted by one block
    g = GrayMap(2)
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randrange(1, 6)
        vec = tuple(RingElement(2, rng.randrange(16)) for _ in range(n))
        shifted = (vec[-1],) + vec[:-1]
        assert g.image(shifted) == rotate_bits(g.image(vec), g.image_len, n * g.image_len)


@st.composite
def ring_vectors(draw):
    k = draw(st.integers(1, 3))
    size = 1 << (1 << k)
    coeffs = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=9))
    return tuple(RingElement(k, c) for c in coeffs)


@given(ring_vectors())
def test_isometry_on_random_vectors(vec):
    """Hamming weight of the Gray image equals the homogeneous weight, on both image paths."""
    k, n = vec[0].k, len(vec)
    weight = hom_weight_vec(vec)
    assert GrayMap(k).image(vec).bit_count() == weight
    image = binary_image_of_span(ModuleSpan(k, n, (flatten_vec(vec),)))
    assert sum(row.bit_count() for row in image.rows) == weight  # at most one row
