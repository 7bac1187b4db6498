"""Generality stress test on the rank-2 symplectic algebra.

The catalog pairs only exercise structure constants of absolute value one
and two on the diagonal; the C2 root system also produces off-diagonal
constants of absolute value two.  The algebra is built here from exact
4x4 matrices, so the structure constants themselves come out of a linear
solve rather than being typed in.

Depth-5 Jacobi and arity-6 square checks are certified on the catalog pairs;
here the sweeps stop one level lower to keep the suite fast (the full-depth
run passes as well, in about ten seconds).
"""

import random
from fractions import Fraction

import pytest

from l3pair import linalg
from l3pair import deraction as da
from l3pair import mc as mcmod
from l3pair.lie import LiePair
from l3pair.liepair import L3Pair
from l3pair.linfty import iter_normalized_tuples

import structure_oracle as so
from helpers import jacobi_walk, sp4_algebra


@pytest.fixture(scope="module")
def sp4_l3():
    alg = sp4_algebra()
    constants = {abs(c) for out in alg.lie.values() for c in out.values()}
    assert Fraction(2) in constants  # the C2-specific constants show up
    return L3Pair(LiePair(alg, ["h1", "h2"]))


def test_sp4_bracket_structure(sp4_l3):
    st = sp4_l3.structure()
    fails, square = jacobi_walk(st, range(1, 5), 4)
    assert not fails and square.is_zero()


def test_sp4_bracket_routes_sampled(sp4_l3):
    rng = random.Random(13)
    l3 = sp4_l3
    for key in iter_normalized_tuples(l3.basis, 2, False):
        a = l3.bracket2(l3.basis.unit(key[0]), l3.basis.unit(key[1]))
        b = so.bracket2_generated(l3, l3.basis.unit(key[0]), l3.basis.unit(key[1]))
        assert a == b, key
    names = l3.basis.names
    for _ in range(250):
        key = tuple(rng.choice(names) for _ in range(3))
        a = so.bracket3(l3, *[l3.basis.unit(nm) for nm in key])
        b = so.bracket3_generated(l3, *[l3.basis.unit(nm) for nm in key])
        assert a == b, key


def test_sp4_derivations_and_gauge(sp4_l3):
    l3 = sp4_l3
    ders = da.derivations(l3.pair.algebra)
    assert len(ders) == 10  # simple algebra: only inner derivations
    inner = [da.ad(l3.pair.algebra, l3.pair.algebra.unit(nm)).to_vector() for nm in l3.pair.algebra.names]
    assert all(linalg.in_span(inner, d.to_vector()) is not None for d in ders)
    ctx = mcmod.MCContext(l3, order=3)
    rng = random.Random(17)
    b = mcmod.random_gauge_parameter(ctx, rng)
    assert mcmod.bridge_defects(ctx, b) == []
    for _ in range(3):
        xi = mcmod.random_mc_element(ctx, rng)
        bb = mcmod.random_gauge_parameter(ctx, rng)
        equal, diff = mcmod.check_gauge_coincidence(ctx, bb, xi)
        assert equal, diff
