import random
from fractions import Fraction

import pytest

from l3pair.mc import TruncatedPoly
from l3pair.scalars import format_rational, parse_rational


def test_rational_division_by_zero():
    with pytest.raises(ValueError):
        parse_rational("1/0")


def test_rational_parse_format_roundtrip():
    for s in ("5/6", "-3/7", "0", "4", "-12"):
        assert format_rational(parse_rational(s)) == s
    assert parse_rational("2/4") == Fraction(1, 2)
    assert format_rational(Fraction(2, 4)) == "1/2"


def test_field_axioms_randomized():
    rng = random.Random(11)

    def rand():
        return Fraction(rng.randint(-20, 20), rng.randint(1, 12))

    for _ in range(200):
        a, b, c = rand(), rand(), rand()
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == 0
        if a != 0:
            assert a * (1 / a) == 1


def test_poly_truncation_examples():
    t1 = TruncatedPoly(1, [0, 1])
    assert t1 * t1 == TruncatedPoly(1)
    one_plus = TruncatedPoly(2, [1, 1])
    one_minus = TruncatedPoly(2, [1, -1])
    assert one_plus * one_minus == TruncatedPoly(2, [1, 0, -1])
    t2 = TruncatedPoly(2, [0, 1])
    assert (t2 * t2) * t2 == TruncatedPoly(2)


def test_poly_order_mismatch_rejected():
    with pytest.raises(ValueError):
        TruncatedPoly(1, [0, 1]) * TruncatedPoly(2, [0, 1])


def test_poly_ring_axioms_randomized():
    rng = random.Random(5)

    def rand(order):
        return TruncatedPoly(order, [Fraction(rng.randint(-5, 5)) for _ in range(order + 1)])

    for _ in range(100):
        order = rng.randint(0, 4)
        a, b, c = rand(order), rand(order), rand(order)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_ideal_nilpotency():
    rng = random.Random(3)
    for order in range(0, 5):
        elems = [
            TruncatedPoly(order, [0] + [Fraction(rng.randint(-4, 4)) for _ in range(order)])
            for _ in range(order + 1)
        ]
        prod = TruncatedPoly.const(order, 1)
        for e in elems:
            prod = prod * e
        assert prod == TruncatedPoly(order)


def test_ideal_membership_enforced():
    assert TruncatedPoly(2, [0, 1, 2]).in_ideal()
    assert not TruncatedPoly(2, [1, 1]).in_ideal()


def test_poly_json_roundtrip():
    p = TruncatedPoly(3, [Fraction(1, 2), 0, Fraction(-7, 3), 4])
    data = p.to_json()
    assert data == {"order": 3, "coeffs": ["1/2", "0", "-7/3", "4"]}
    assert TruncatedPoly(data["order"], [parse_rational(c) for c in data["coeffs"]]) == p


def test_poly_mixes_with_rationals():
    p = TruncatedPoly(2, [1, 2, 3])
    assert p + 1 == TruncatedPoly(2, [2, 2, 3])
    assert Fraction(1, 2) * p == TruncatedPoly(2, [Fraction(1, 2), 1, Fraction(3, 2)])
    assert 0 + p == p
    assert not TruncatedPoly(4)


def test_poly_hash_agrees_with_eq():
    # a polynomial with no t-terms equals its rational, so the two must hash alike
    for order, c in ((4, 3), (2, Fraction(-7, 2)), (4, 0)):
        p = TruncatedPoly.const(order, c)
        assert p == c and p == Fraction(c) and len({p, c, Fraction(c)}) == 1
    assert len({TruncatedPoly(2, [1, 2]), TruncatedPoly(2, [1, 2, 0])}) == 1


def test_poly_rejects_inexact_coefficients():
    # Fraction(c) would take a float's binary value or parse a string; neither is an exact input
    for bad in (0.1, "1/3", 1.0, None):
        with pytest.raises(TypeError):
            TruncatedPoly(2, [0, bad])
        with pytest.raises(TypeError):
            TruncatedPoly.const(2, bad)
    p = TruncatedPoly(2, [1, Fraction(1, 3)])
    assert all(type(c) is Fraction for c in p.coeffs)
