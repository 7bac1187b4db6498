"""The layered xi-twisted series against the ordered-product reference.

``mc._Twist`` walks multisets of xi's support and convolves integer
t-layers over one denominator.  The reference here is the definition,
sum_j s^j / j! T(xi^j, args), with every term an ordered product over
truncated-polynomial coordinates (``MultiTable.evaluate``).  Random skew
tables of arity 0-3 (some with truncated-polynomial entries, which reach
the series in the layered form ``gauge_oracle.layered_tables`` gives them)
and random arguments of valuation 0..N are drawn for N in 1..4; xi and the
arguments reach the series through ``ring_oracle.layered``, and its result
is read back through ``ring_oracle.element``.  The series cut at a power,
``_Twist(..., top=m)(args)``, must be the reference up to t^m, whose t^m
layer ``mc_extend`` reads, for every m < N.
"""

import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial, gcd

import pytest

from l3pair import mc as mcmod
from l3pair.graded import MultiTable
from l3pair.mc import convolve
from l3pair.vectors import GradedElement

import gauge_oracle as go
from helpers import get_l3
from ring_oracle import TruncatedPoly, element, layered, layers_of

# a few symbols of each degree of the sl3-cartan form space keep the ordered products small
DEGREES = {0: 3, 1: 5, 2: 3}


def reference(tables, xi, args, sign, space):
    total = space.zero()
    for arity, table in tables.items():
        j = arity - len(args)
        if j >= 0:
            total = total + table.evaluate([xi] * j + list(args)).scale(Fraction(sign**j, factorial(j)))
    return total


def random_poly(rng, order, valuation):
    return TruncatedPoly(order, [0] * valuation + [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(order + 1 - valuation)])


def random_coefficient(rng, order, polys: bool):
    if polys and rng.random() < 0.5:
        return random_poly(rng, order, rng.randint(0, order))
    return Fraction(rng.choice([-2, -1, 1, 3]), rng.choice([1, 1, 2]))


def random_table(rng, space, symbols, arity, order, polys: bool) -> MultiTable:
    """A skew table of a bracket's or an action map's degree, with about a third of its keys set."""
    table = MultiTable(space, arity, "skew", rng.choice([1, 2]) - arity)
    all_names = sorted((nm for names in symbols.values() for nm in names), key=space.index)
    for key in combinations_with_replacement(all_names, arity):
        targets = symbols.get(sum(space.degree(nm) for nm in key) + table.map_degree, [])
        if not targets or table.normalize(key)[0] == 0 or rng.random() > 0.35:
            continue
        outs = rng.sample(targets, rng.randint(1, len(targets)))
        table.set_value(key, GradedElement(space, {nm: random_coefficient(rng, order, polys) for nm in outs}))
    return table


def below(elem, m):
    """The element with every layer from t^m up dropped."""
    order = next(iter(elem.coords.values())).order
    return GradedElement(elem.space, {nm: TruncatedPoly(order, c.coeffs[:m]) for nm, c in elem.coords.items()})


def up_to(value, m):
    """The layered value (D, {symbol: integer layers}) with every layer above t^m dropped, in lowest terms."""
    den, layered = value
    cut = {nm: tuple((k, a) for k, a in layers if k <= m) for nm, layers in layered.items()}
    cut = {nm: layers for nm, layers in cut.items() if layers}
    g = gcd(den, *(a for layers in cut.values() for _, a in layers))
    return den // g, {nm: tuple((k, a // g) for k, a in layers) for nm, layers in cut.items()}


def random_element(rng, space, names, order, low, high):
    picks = rng.sample(names, rng.randint(2, len(names)))
    return GradedElement(space, {nm: random_poly(rng, order, rng.randint(low, high)) for nm in picks})


@pytest.mark.parametrize("seed", range(24))
def test_layered_twist_equals_the_ordered_reference(seed):
    rng = random.Random(seed)
    # every argument count with every order, with rational table entries and then with polynomial ones mixed in
    n, order, polys = seed % 3, 1 + seed // 3 % 4, seed >= 12
    ctx = mcmod.MCContext(get_l3("sl3-cartan"), order=order)
    space = ctx.l3.basis
    symbols = {}
    for nm in space.names:
        deg = space.degree(nm)
        if len(symbols.setdefault(deg, [])) < DEGREES.get(deg, 0):
            symbols[deg].append(nm)
    tables = {arity: random_table(rng, space, symbols, arity, order, polys) for arity in range(n, 4) if rng.random() < 0.8}
    xi = random_element(rng, space, symbols[1], order, 1, order)
    all_names = [nm for names in symbols.values() for nm in names]
    args = [random_element(rng, space, all_names, order, 0, order) for _ in range(n)]
    tables_layered = go.layered_tables(tables)
    for sign in (1, -1):
        ref = reference(tables, xi, args, sign, space)
        got = element(ctx, mcmod._Twist(ctx, tables_layered, layered(xi), sign)([layered(a) for a in args]))
        assert got == ref, (seed, sign)
        # cut at top = m, as mc_extend reads the t^m layer of the curvature of its partial sum below
        # t^m: the multisets and arguments pruned by their valuations leave the t^m layer whole
        for m in range(order):
            for x in (xi, below(xi, m)):
                full = ref if x is xi else reference(tables, x, args, sign, space)
                cut = mcmod._Twist(ctx, tables_layered, layered(x), sign, top=m)([layered(a) for a in args])
                assert cut == up_to(layered(full), m), (seed, sign, m)


@pytest.mark.parametrize("seed", range(8))
def test_one_argument_passed_twice_equals_the_ordered_reference(seed):
    """[e, e] with the same layered e in both slots, as the gauge series passes a correction, for a
    degree-1 e and an even e, whose slots are skew: the same value as for an equal copy."""
    rng = random.Random(100 + seed)
    order, polys = 1 + seed % 4, seed >= 4
    ctx = mcmod.MCContext(get_l3("sl3-cartan"), order=order)
    space = ctx.l3.basis
    symbols = {}
    for nm in space.names:
        deg = space.degree(nm)
        if len(symbols.setdefault(deg, [])) < DEGREES.get(deg, 0):
            symbols[deg].append(nm)
    tables = {arity: random_table(rng, space, symbols, arity, order, polys) for arity in (2, 3)}
    tables_layered = go.layered_tables(tables)
    xi = random_element(rng, space, symbols[1], order, 1, order)
    for deg in (1, 0):
        e = random_element(rng, space, symbols[deg], order, 0, 0)  # valuation 0: no symbol pair is cut
        for sign in (1, -1):
            twists = [mcmod._Twist(ctx, tables_layered, layered(xi), sign) for _ in range(2)]
            le = layered(e)
            got = twists[0]([le, le])
            assert element(ctx, got) == reference(tables, xi, [e, e], sign, space), (seed, deg, sign)
            assert got == twists[1]([le, (le[0], dict(le[1]))])


def test_the_curvature_equals_the_ordered_reference_on_a_dense_twist():
    """Every degree-1 symbol of sl3-cartan in xi, so multisets of size 3 with repeats meet the ternary bracket."""
    rng = random.Random(7)
    ctx = mcmod.MCContext(get_l3("sl3-cartan"), order=4)
    space = ctx.l3.basis
    deg1 = [nm for nm in space.names if space.degree(nm) == 1]
    xi = GradedElement(space, {nm: random_poly(rng, 4, 1) for nm in deg1})
    tables = ctx.structure.brackets
    assert element(ctx, mcmod.mc_defect(ctx, layered(xi))) == reference(tables, xi, [], 1, space)


def test_convolve_truncates_and_drops_zero_layers():
    a = ((0, 1), (1, Fraction(1, 2)))
    b = ((1, 2), (2, -1))
    assert convolve(a, b, 4) == ((1, 2), (3, Fraction(-1, 2)))  # the t^2 layers cancel
    assert convolve(a, b, 1) == ((1, 2),)
    assert convolve(b, b, 1) == ()
    assert layers_of(TruncatedPoly(3, [0, Fraction(4, 2), 0, Fraction(1, 3)])) == ((1, 2), (3, Fraction(1, 3)))
    assert layers_of(Fraction(-3)) == ((0, -3),)
