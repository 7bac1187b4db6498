import random
from fractions import Fraction

import pytest

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
