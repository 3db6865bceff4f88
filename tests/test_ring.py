from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import character_unit_sum, one, top, units
from rkcodes.codes import _weight_table
from rkcodes.ring import (
    RingElement,
    elements,
    format_element,
    gamma,
    monomial,
    parse_element,
    unit_count,
    zero,
)

E = RingElement


def test_add_examples():
    u = E(1, 0b10)
    assert (u + u).coeffs == 0
    a = parse_element("1+u1", 2, "generic")
    b = parse_element("u2", 2, "generic")
    assert format_element(a + b, "generic") == "1+u1+u2"
    c = parse_element("1+u1+u2", 2, "generic")
    d = parse_element("u1+u2+u1u2", 2, "generic")
    assert format_element(c + d, "generic") == "1+u1u2"


def test_add_rejects_mixed_k():
    with pytest.raises(ValueError):
        one(1) + one(2)
    with pytest.raises(ValueError):
        one(1) * one(2)


def test_mul_examples():
    u, v = monomial(2, [1]), monomial(2, [2])
    assert (u * v) == monomial(2, [1, 2])
    assert (u * u).coeffs == 0
    lam = E(1, 0b11)  # 1+u
    assert (lam * lam) == one(1)
    a = parse_element("1+u1+u2", 2, "generic")
    b = parse_element("1+u1", 2, "generic")
    assert format_element(a * b, "generic") == "1+u2+u1u2"


def test_mul_unital_commutative_associative_distributive():
    for k in (1, 2):
        elems = list(elements(k))
        for a in elems:
            assert a * one(k) == a
        for a in elems:
            for b in elems:
                assert a * b == b * a
                assert a + b == b + a
        for a in elems:
            for b in elems:
                for c in elems:
                    assert (a * b) * c == a * (b * c)
                    assert a * (b + c) == a * b + a * c


def ring_elements(k: int, count: int):
    return st.lists(
        st.builds(RingElement, st.just(k), st.integers(0, (1 << (1 << k)) - 1)),
        min_size=count,
        max_size=count,
    )


@given(st.integers(3, 6).flatmap(lambda k: ring_elements(k, 3)))
def test_ring_axioms_k3_to_k6(abc):
    a, b, c = abc
    k = a.k
    assert a * one(k) == a and a + zero(k) == a and a * zero(k) == zero(k)
    assert a + a == zero(k)  # characteristic 2
    assert a * b == b * a and a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * a == (one(k) if a.is_unit else zero(k))


def test_units_square_to_one_nonunits_to_zero():
    for k in (1, 2, 3):
        for a in elements(k):
            sq = a * a
            assert sq == (one(k) if a.is_unit else zero(k))


def test_is_unit_examples():
    assert parse_element("1+u1u2", 2, "generic").is_unit
    assert not parse_element("u1+u2", 2, "generic").is_unit
    assert not zero(1).is_unit


def test_unit_counts_and_shift_bijection():
    for k in (1, 2, 3):
        us = list(units(k))
        ds = [a for a in elements(k) if not a.is_unit]
        assert len(us) == len(ds) == unit_count(k)
        assert {(d + one(k)).coeffs for d in ds} == {u.coeffs for u in us}


def test_every_unit_is_its_own_inverse():
    for k in (1, 2):
        for a in elements(k):
            has_inverse = any(a * b == one(k) for b in elements(k))
            assert has_inverse == a.is_unit
            if a.is_unit:
                assert a * a == one(k)


def test_mul_by_top():
    assert parse_element("1+u1", 2, "generic") * top(2) == top(2)
    assert parse_element("u1+u2", 2, "generic") * top(2) == zero(2)
    assert one(3) * top(3) == top(3)
    for k in (1, 2):
        for a in elements(k):
            assert a * top(k) == (top(k) if a.is_unit else zero(k))


def test_character_values():
    k2 = {s: parse_element(s, 2, "generic") for s in
          ("0", "1", "u1", "u2", "u1u2", "1+u1", "1+u1+u2", "1+u1+u2+u1u2")}
    assert k2["0"].character() == 1
    for s in ("1", "u1", "u2", "u1u2", "1+u1+u2"):
        assert k2[s].character() == -1
    assert k2["1+u1"].character() == 1
    assert k2["1+u1+u2+u1u2"].character() == 1


def test_character_is_multiplicative_on_sums():
    for k in (1, 2):
        for a in elements(k):
            for b in elements(k):
                assert (a + b).character() == a.character() * b.character()


def test_character_nontrivial_on_nonzero_principal_ideals():
    for k in (1, 2):
        for x in elements(k):
            if not x:
                continue
            assert any((x * y).character() == -1 for y in elements(k))
            assert sum((x * y).character() for y in elements(k)) == 0


def test_hom_weight_values():
    assert parse_element("8", 2).hom_weight() == 8
    assert parse_element("5", 2).hom_weight() == 4  # 1+v
    assert E(1, 0b10).hom_weight() == 2  # u
    assert one(1).hom_weight() == 1
    assert zero(2).hom_weight() == 0


def test_hom_weight_unit_invariance():
    for k in (1, 2):
        for lam in units(k):
            for a in elements(k):
                assert (lam * a).hom_weight() == a.hom_weight()


def test_character_unit_sum():
    assert character_unit_sum(parse_element("8", 2)) == -8
    assert character_unit_sum(parse_element("2", 2)) == 0
    assert character_unit_sum(zero(1)) == 2


@pytest.mark.parametrize("k", [1, 2, 3])
def test_hom_weight_matches_character_sums_on_every_element_and_byte(k):
    # w(x) = gamma * (1 - sum of chi(u*x) / |U|) = #{u : chi(u*x) = -1}, for every element
    n_units = unit_count(k)
    weight = {}
    for x in elements(k):
        numerator = gamma(k) * (n_units - character_unit_sum(x))
        assert numerator % n_units == 0
        weight[x.coeffs] = numerator // n_units
        assert x.hom_weight() == weight[x.coeffs]
        assert weight[x.coeffs] == sum((u * x).character() == -1 for u in units(k))
    assert weight[top(k).coeffs] == n_units  # every unit's character is -1 at the top
    # and the byte table the ring side weighs by: its 8 >> k coordinates' sum over gamma
    w = 1 << k
    for b, entry in enumerate(_weight_table(k)):
        assert entry * gamma(k) == sum(weight[b >> c & (1 << w) - 1] for c in range(0, 8, w)), b


def test_full_ring_character_sum_vanishes():
    # corrected reading of the unit-sum lemma's proof
    for k in (1, 2):
        for x in elements(k):
            if x:
                assert sum((a * x).character() for a in elements(k)) == 0


def test_coset_average_on_nonzero_principal_ideals():
    for k in (1, 2):
        g = gamma(k)
        ideals = set()
        for x in elements(k):
            if x:
                ideals.add(frozenset((x * r).coeffs for r in elements(k)))
        for ideal in ideals:
            for y in elements(k):
                total = sum(E(k, c ^ y.coeffs).hom_weight() for c in ideal)
                assert total == g * len(ideal)


def test_equal_principal_ideals_have_equal_weights():
    for k in (1, 2):
        by_ideal: dict[frozenset, set[int]] = {}
        for x in elements(k):
            key = frozenset((x * r).coeffs for r in elements(k))
            by_ideal.setdefault(key, set()).add(x.hom_weight())
        assert all(len(ws) == 1 for ws in by_ideal.values())


def test_residue():
    assert parse_element("1+u1u2", 2, "generic").residue() == 1
    assert parse_element("u1+u2+u1u2", 2, "generic").residue() == 0
    assert zero(2).residue() == 0
    for k in (1, 2):
        for a in elements(k):
            assert a.residue() == (1 if a.is_unit else 0)


def test_parse_examples():
    assert format_element(parse_element("b", 2), "generic") == "1+u1+u1u2"  # uv+u+1
    assert format_element(parse_element("7", 2), "generic") == "1+u1+u2"  # v+u+1
    assert parse_element("3", 1).coeffs == 0b11  # 1+u


def test_parse_format_roundtrip():
    for a in elements(1):
        assert parse_element(format_element(a, "r1"), 1) == a
        assert parse_element(format_element(a, "generic"), 1, "generic") == a
    for a in elements(2):
        assert parse_element(format_element(a, "hex"), 2) == a
        assert parse_element(format_element(a, "generic"), 2, "generic") == a
    for a in elements(3):
        assert parse_element(format_element(a), 3) == a


NOTATION_RINGS = {"r1": (1,), "hex": (2,), "generic": (1, 2, 3, 4, 5, 6)}


@given(
    st.sampled_from(sorted(NOTATION_RINGS)).flatmap(
        lambda notation: st.tuples(
            st.just(notation),
            st.sampled_from(NOTATION_RINGS[notation]).flatmap(lambda k: ring_elements(k, 1)),
        )
    )
)
def test_parse_format_roundtrip_property(case):
    notation, (a,) = case
    text = format_element(a, notation)
    assert parse_element(text, a.k, notation) == a
    assert format_element(parse_element(text, a.k, notation), notation) == text


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_element("x", 1)
    with pytest.raises(ValueError):
        parse_element("g", 2)
    with pytest.raises(ValueError):
        parse_element("b", 1, "hex")  # notation/k mismatch
    with pytest.raises(ValueError):
        parse_element("3", 2, "r1")
    with pytest.raises(ValueError):
        parse_element("u4", 2, "generic")  # generator out of range
    with pytest.raises(ValueError):
        parse_element("u1u1", 2, "generic")  # repeated generator
    with pytest.raises(ValueError):
        parse_element("u3", 2, "generic")  # generator out of range
