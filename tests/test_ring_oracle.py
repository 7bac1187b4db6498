"""The contract of ``ring_oracle.TruncatedPoly``, the independent ring the layered values are compared against,
and ``mc.layered_json`` against the ring's own JSON form."""

import random
from fractions import Fraction

import pytest

from l3pair import mc as mcmod
from l3pair.scalars import parse_rational
from l3pair.vectors import GradedElement

from helpers import get_l3
from ring_oracle import TruncatedPoly, element, layered


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


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_the_layered_json_writer_is_the_ring_json_of_each_coordinate(order):
    """``mc.layered_json`` writes each symbol of a layered value as ``TruncatedPoly.to_json`` writes the coordinate
    that ``element`` reads from it, on random values with zero layers, negative and non-integral coefficients, and
    on the zero vector; ``layered`` reads each value back."""
    ctx = mcmod.MCContext(get_l3("sl3-cartan"), order=order)
    rng = random.Random(order)
    values = [(1, {})]
    for _ in range(40):
        coords = {}
        for nm in rng.sample(ctx.l3.basis.names, rng.randint(1, 6)):
            coeffs = [Fraction(rng.choice([0, 0, -7, -1, 1, 2, 5]), rng.choice([1, 1, 2, 3, 12])) for _ in range(order + 1)]
            coords[nm] = TruncatedPoly(order, [0 if rng.random() < 0.8 else coeffs[0]] + coeffs[1:])
        values.append(layered(GradedElement(ctx.l3.basis, coords)))
    written = []
    for value in values:
        elem = element(ctx, value)
        got = mcmod.layered_json(ctx, value)
        assert got == {nm: c.to_json() for nm, c in elem.coords.items()} == elem.to_json(), value
        assert layered(elem) == value
        written.extend(c for entry in got.values() for c in entry["coeffs"])
    assert mcmod.layered_json(ctx, (1, {})) == {}
    assert "0" in written and any(c.startswith("-") for c in written) and any("/" in c for c in written)
