from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rkcodes.polyqt import (
    Polynomial,
    format_block,
    format_generator,
    is_monic,
    lambda_substitute,
    parse_block,
    parse_generator,
    poly_degree,
    poly_divmod,
    shift,
    twistulant,
)
from oracles import free_rank, one, shift_n
from rkcodes.ring import NOTATIONS, RingElement, elements, parse_element, zero

LAM1 = one(1)
THREE = RingElement(1, 0b11)  # 1+u
U = RingElement(1, 0b10)


def p1(text: str, lam=LAM1) -> Polynomial:
    return Polynomial(parse_block(text, 1), lam)


def raw_mul(f, g):
    k = f[0].k
    out = [zero(k) for _ in range(len(f) + len(g) - 1)]
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def test_shift_examples():
    o, u, z = one(1), U, zero(1)
    assert shift((o, u, z), LAM1) == (z, o, u)
    assert shift((z, u), THREE) == (u, z)  # (1+u)*u = u
    with pytest.raises(ValueError):
        shift((o, u), U)  # non-unit twist


def test_shift_m_times_scales_by_lambda():
    rng = random.Random(3)
    for k in (1, 2):
        for lam_word in (1, 3):
            lam = RingElement(k, lam_word)
            for m in range(1, 9):
                vec = tuple(RingElement(k, rng.randrange(1 << (1 << k))) for _ in range(m))
                assert shift_n(vec, lam, m) == tuple(lam * e for e in vec)
                assert shift_n(vec, lam, 2 * m) == vec


def test_poly_mul_examples():
    # x * (g0 + g1 x) mod x^2 - lambda = lambda g1 + g0 x
    g = Polynomial((one(1), U), THREE)
    x = Polynomial((zero(1), one(1)), THREE)
    assert (x * g).coeffs == (THREE * U, one(1))
    # (1+x)(1+x+x^2) = x^3 + 1 = 0 mod x^3 - 1
    assert not (p1("110") * p1("111"))
    f = p1("1u1")
    assert f * Polynomial((one(1), zero(1), zero(1)), LAM1) == f


def test_poly_mul_modulus_mismatch():
    with pytest.raises(ValueError):
        p1("11") * p1("111")
    with pytest.raises(ValueError):
        p1("11") * Polynomial(parse_block("11", 1), THREE)


def test_poly_mul_times_x_is_shift():
    rng = random.Random(7)
    for k in (1, 2):
        for lam_word in (1, 3):
            lam = RingElement(k, lam_word)
            for m in range(1, 9):
                coeffs = tuple(RingElement(k, rng.randrange(1 << (1 << k))) for _ in range(m))
                x = (lam,) if m == 1 else (zero(k), one(k)) + (zero(k),) * (m - 2)
                assert (Polynomial(x, lam) * Polynomial(coeffs, lam)).coeffs == shift(coeffs, lam)


def test_poly_divmod_examples():
    g = parse_block("11", 1)  # 1 + x
    q, r = poly_divmod(parse_block("1001", 1), g)  # x^3 - 1
    assert [c.coeffs for c in q] == [1, 1, 1]  # x^2 + x + 1
    assert poly_degree(r) == -1
    f = parse_block("1u1", 1)
    q, r = poly_divmod(f, f)
    assert [c.coeffs for c in q] == [1]
    assert poly_degree(r) == -1
    q, r = poly_divmod(f, parse_block("1", 1))
    assert tuple(q) == f
    assert poly_degree(r) == -1
    # x^2 - 1 = (x + u) q + 1: not a divisor
    q, r = poly_divmod(parse_block("101", 1), parse_block("u1", 1))
    assert [c.coeffs for c in r] == [1]


def test_poly_divmod_reconstruction():
    rng = random.Random(13)
    for _ in range(100):
        k = rng.choice((1, 2))
        size = 1 << (1 << k)
        f = [RingElement(k, rng.randrange(size)) for _ in range(rng.randrange(1, 8))]
        dg = rng.randrange(0, 4)
        g = [RingElement(k, rng.randrange(size)) for _ in range(dg)] + [one(k)]
        q, r = poly_divmod(f, g)
        rebuilt = [zero(k)] * max(len(f), len(raw_mul(q, g)), len(r))
        for i, c in enumerate(raw_mul(q, g)):
            rebuilt[i] += c
        for i, c in enumerate(r):
            rebuilt[i] += c
        assert poly_degree(r) < poly_degree(g) or poly_degree(r) == -1
        trimmed = rebuilt[: poly_degree(rebuilt) + 1]
        assert trimmed == list(f[: poly_degree(f) + 1])


def test_poly_divmod_requires_monic():
    with pytest.raises(ValueError):
        poly_divmod(parse_block("111", 1), parse_block("1u", 1))  # leading u
    with pytest.raises(ValueError):
        poly_divmod(parse_block("111", 1), parse_block("0", 1))
    assert is_monic(parse_block("u1", 1))  # x + u is monic


def test_divides_modulus():
    assert free_rank(parse_block("11", 1), 3, LAM1) == 2
    assert free_rank(parse_block("u1", 1), 2, LAM1) is None
    assert free_rank(parse_block("1", 1), 5, THREE) == 5


def test_lambda_substitute_examples():
    f = p1("110")  # 1 + x mod x^3 - 1
    assert lambda_substitute(f, LAM1) == f
    s = lambda_substitute(f, THREE)
    assert [c.coeffs for c in s.coeffs] == [1, 3, 0]  # 1 + (1+u)x
    assert s.lam == THREE
    # substituting again returns to the cyclic modulus
    assert lambda_substitute(s, THREE) == f


def test_lambda_substitute_is_ring_isomorphism_odd_n():
    # exhaustive for k=1, n=3
    polys = [Polynomial((a, b, c), LAM1)
             for a in elements(1) for b in elements(1) for c in elements(1)]
    for f in polys:
        for g in polys:
            assert (lambda_substitute(f * g, THREE)
                    == lambda_substitute(f, THREE) * lambda_substitute(g, THREE))
            assert (lambda_substitute(f + g, THREE)
                    == lambda_substitute(f, THREE) + lambda_substitute(g, THREE))
    # random for k=2, n in {3, 5}
    rng = random.Random(23)
    lam = parse_element("f", 2)
    for n in (3, 5):
        for _ in range(100):
            f = Polynomial(tuple(RingElement(2, rng.randrange(16)) for _ in range(n)), one(2))
            g = Polynomial(tuple(RingElement(2, rng.randrange(16)) for _ in range(n)), one(2))
            assert (lambda_substitute(f * g, lam)
                    == lambda_substitute(f, lam) * lambda_substitute(g, lam))


def test_lambda_substitute_refuses_even_n():
    with pytest.raises(ValueError):
        lambda_substitute(p1("11"), THREE)


def test_naive_substitution_fails_multiplicativity_for_even_n():
    # f = g = x over R_1 mod x^2 - 1: f*g = 1, so the naive coefficient map
    # sends it to 1; but (3x)*(3x) = 3 mod x^2 - 3.  The odd-coindex
    # hypothesis is sharp.
    x_twisted = Polynomial((zero(1), THREE), THREE)  # naive image of x
    naive_of_product = Polynomial((one(1), zero(1)), THREE)  # naive image of 1
    assert x_twisted * x_twisted != naive_of_product


def test_twistulant():
    g0, g1, g2 = parse_block("1u3", 1)
    rows = twistulant((g0, g1, g2), THREE)
    assert rows == (
        (g0, g1, g2),
        (THREE * g2, g0, g1),
        (THREE * g1, THREE * g2, g0),
    )
    assert twistulant((U,), THREE) == ((U,),)
    ones = parse_block("11", 2)
    assert twistulant(ones, one(2)) == (ones, ones)


def test_generator_parsing_roundtrip():
    gen = parse_generator("(1u|30|u3)", 1)
    assert len(gen) == 3 and all(len(b) == 2 for b in gen)
    assert format_generator(gen) == "1u|30|u3"
    assert parse_generator("1u|30|u3", 1) == gen
    hex_gen = parse_generator("231|f87|bc7", 2)
    assert format_generator(hex_gen) == "231|f87|bc7"
    gen3 = parse_generator("1+u1,0,u2", 3)
    assert len(gen3) == 1 and len(gen3[0]) == 3
    assert format_generator(gen3) == "1+u1,0,u2"
    assert format_block(parse_block("0u", 1)) == "0u"


@st.composite
def generator_cases(draw):
    """(notation, k, generator tuple): ell blocks of m elements of R_k."""
    notation = draw(st.sampled_from(NOTATIONS))
    k = {"r1": 1, "hex": 2}.get(notation) or draw(st.integers(1, 6))
    ell, m = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    digit = st.integers(0, (1 << (1 << k)) - 1).map(lambda c: RingElement(k, c))
    block = st.lists(digit, min_size=m, max_size=m).map(tuple)
    return notation, k, tuple(draw(st.lists(block, min_size=ell, max_size=ell)))


@given(generator_cases())
def test_generator_string_roundtrip_property(case):
    notation, k, gen = case
    text = format_generator(gen, notation)
    assert parse_generator(text, k, notation) == gen
    assert parse_generator(f"({text})", k, notation) == gen
    assert format_generator(parse_generator(text, k, notation), notation) == text
