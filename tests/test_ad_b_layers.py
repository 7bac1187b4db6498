"""The layered ad_b action and the per-symbol bridge defects against their references.

``mc.ad_b_action`` combines the rational per-symbol ad tables on integer
t-layers, and ``mc.bridge_defects`` sums per-symbol defects.  The references
in ``gauge_oracle`` tabulate ad_b as a Derivation with truncated-polynomial
images, combine the per-symbol tables entry by entry, and evaluate the
bridge identities on truncated-polynomial coordinates.  Gauge parameters
carry thirds, fifths and integers in every t-layer, at orders 1-4, on the
six catalog pairs and on sp4; the bridge records are compared on ad tables
with entries scaled, negated, dropped and added.  Outer derivations take the
same path: ``mc.layered_action`` over the whole derivation basis of each
catalog pair, with random fractional coefficients, against tabulating the
combined Derivation.  The classical gauge series on the contracted brackets
is compared with the direct route, b an argument of the twisted bracket
(``gauge_oracle.gauge_getzler_direct``).
"""

import random
from fractions import Fraction

import pytest

from l3pair import catalog
from l3pair import mc as mcmod
from l3pair.deraction import ActionMaps, derivations
from l3pair.lie import LiePair
from l3pair.liepair import L3Pair
from l3pair.vectors import GradedElement

import gauge_oracle as go
from gauge_oracle import fractional_parameter
import helpers
import ring_oracle as ro
from helpers import sp4_algebra

PAIRS = catalog.EXAMPLE_NAMES + ("sp4",)
ORDERS = (1, 2, 3, 4)


def get_l3(name):
    if name == "sp4":
        return L3Pair(LiePair(sp4_algebra(), ["h1", "h2"]))
    return helpers.get_l3(name)


def break_tables(ctx, rng) -> None:
    """Scale, negate or drop one entry in each arity of every other ad table, and add a fifth of the
    identity on the last complement symbol to the arity-1 table of the first (in place)."""
    nm = ctx.l3.pair.b_names[-1]
    first = ctx.ad_symbols.maps[0][1].values
    first[(nm,)] = first.get((nm,), ctx.l3.zero()) + ctx.l3.basis.unit(nm).scale(Fraction(1, 5))
    for maps in ctx.ad_symbols.maps[::2]:
        for table in maps.values():
            if table.values:
                key = rng.choice(sorted(table.values))
                factor = rng.choice([2, -1, Fraction(1, 3), 0])
                if factor:
                    table.values[key] = table.values[key].scale(factor)
                else:
                    del table.values[key]


@pytest.mark.parametrize("name", PAIRS)
def test_the_layered_action_equals_tabulating_ad_b(name):
    l3 = get_l3(name)
    for order in ORDERS:
        ctx = mcmod.MCContext(l3, order=order)
        rng = random.Random(order)
        for b in (fractional_parameter(ctx, rng), fractional_parameter(ctx, rng, skip=l3.pair.b_names[1::2])):
            layered = mcmod.ad_b_action(ctx, b)
            assert go.action_tables(ctx, layered) == ActionMaps(l3, [go.ad_b(ctx, b)]).maps[0], (name, order)
            d = ctx.structure.bracket(1)
            assert ro.element(ctx, mcmod.action_curvature(ctx, layered)) == (d.evaluate([ro.element(ctx, b)]) if d is not None else l3.zero())


@pytest.mark.parametrize("name", PAIRS)
def test_the_layered_action_equals_the_table_combination_on_broken_tables(name):
    l3 = get_l3(name)
    for order in ORDERS:
        ctx = mcmod.MCContext(l3, order=order)
        rng = random.Random(10 + order)
        break_tables(ctx, rng)
        b = fractional_parameter(ctx, rng)
        assert go.action_tables(ctx, mcmod.ad_b_action(ctx, b)) == go.ad_b_action(ctx, b).maps[0], (name, order)


@pytest.mark.parametrize("name", PAIRS)
def test_bridge_defects_equal_the_oracle_on_broken_tables(name):
    l3 = get_l3(name)
    caught = 0
    for order in ORDERS:
        ctx = mcmod.MCContext(l3, order=order)
        rng = random.Random(20 + order)
        assert mcmod.bridge_defects(ctx, fractional_parameter(ctx, rng)) == []
        ctx = mcmod.MCContext(l3, order=order)
        break_tables(ctx, rng)
        # every symbol, then without the odd-numbered symbols, whose defects must then vanish
        for skip in ((), l3.pair.b_names[1::2], l3.pair.b_names[::2]):
            b = fractional_parameter(ctx, rng, skip)
            got = mcmod.bridge_defects(ctx, b)
            assert got == go.bridge_defects(ctx, b), (name, order, skip)
            caught += len(got)
    assert caught  # the broken tables show in the bridges


@pytest.mark.parametrize("name", PAIRS)
def test_the_gauge_of_the_layered_action_equals_the_gauge_of_ad_b(name):
    l3 = get_l3(name)
    for order in ORDERS:
        ctx = mcmod.MCContext(l3, order=order)
        rng = random.Random(30 + order)
        xi = mcmod.random_mc_element(ctx, rng)
        b = fractional_parameter(ctx, rng)
        got = mcmod.gauge_h(ctx, mcmod.ad_b_action(ctx, b), xi)
        assert got == mcmod.gauge_h(ctx, go.derivation_action(ctx, go.ad_b(ctx, b)), xi), (name, order)
        assert got == mcmod.gauge_getzler(ctx, b, xi), (name, order)


@pytest.mark.parametrize("name", PAIRS)
def test_the_contracted_gauge_series_equals_the_direct_route(name):
    """The classical series on the brackets contracted with b (sign -1) against b as the first
    argument of the twisted bracket (sign +1), at orders 1-4, for b = 0 and for fractional b."""
    l3 = get_l3(name)
    moved = sum(go.check_getzler_routes(mcmod.MCContext(l3, order=order), random.Random(50 + order)) for order in ORDERS)
    if name != "abelian:3":  # every bracket is zero there
        assert moved, name


@pytest.mark.parametrize("name", [nm for nm in PAIRS if nm != "aff1"])  # aff1 has one complement symbol
def test_bridge_defects_of_two_symbols_cancel(name):
    """The same entry added to the ad tables of two symbols: b_1 = -b_2 cancels it, b_1 = b_2 does not."""
    l3 = get_l3(name)
    s1, s2 = l3.pair.b_names[:2]
    for order in ORDERS:
        ctx = mcmod.MCContext(l3, order=order)
        for s in (0, 1):
            table = ctx.ad_symbols.maps[s][1].values
            table[(s1,)] = table.get((s1,), l3.zero()) + l3.basis.unit(s1).scale(Fraction(2, 3))
        p = ro.element(ctx, fractional_parameter(ctx, random.Random(order)))
        for sign, expected in ((-1, []), (1, [("action1-vs-bracket2", (s1,))])):
            b = ro.layered(GradedElement(l3.basis, {s1: p.coords[s1], s2: p.coords[s1] * sign}))
            assert mcmod.bridge_defects(ctx, b) == go.bridge_defects(ctx, b) == expected, (name, order, sign)


@pytest.mark.parametrize("name", catalog.EXAMPLE_NAMES)
def test_the_layered_action_over_the_derivation_basis_equals_tabulating_the_combination(name):
    l3 = get_l3(name)
    action = ActionMaps(l3, derivations(l3.pair.algebra))
    for order in ORDERS:
        for seed in range(2):
            go.check_basis_action(mcmod.MCContext(l3, order=order), action, random.Random(40 + 10 * seed + order))
