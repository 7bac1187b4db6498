import gc
import random
import weakref
from fractions import Fraction
from math import gcd

import pytest

from l3pair import catalog, linalg
from l3pair import mc as mcmod
from l3pair.deraction import ActionMaps, Derivation, ad, derivations
from l3pair.lie import LieAlgebra, LiePair
from l3pair.liepair import L3Pair
from l3pair.mc import TruncatedPoly
from l3pair.vectors import GradedElement

import gauge_oracle as go
import mutations as mu
import structure_oracle as so
from helpers import RESCALED, get_l3, report_pair


def ctx_for(name, order=4):
    return mcmod.MCContext(get_l3(name), order=order)


def central_square_pair():
    """Four-dimensional algebra with central two-dimensional subalgebra and a
    complement with [x, y] = x: the differential vanishes and the extension
    problem is genuinely obstructed."""
    alg = LieAlgebra(["z1", "z2", "x", "y"], {("x", "y"): {"x": 1}})
    return L3Pair(LiePair(alg, ["z1", "z2"]))


def test_mc_defect_zero_element():
    ctx = ctx_for("sl3-cartan")
    assert mcmod.mc_defect(ctx, ctx.l3.zero()).is_zero()


def test_mc_defect_vanishes_when_no_degree_two():
    ctx = ctx_for("sl2", order=3)
    xi = go.lift(ctx, ctx.l3.basis.unit("h|e") + ctx.l3.basis.unit("h|f").scale(5))
    assert mcmod.mc_defect(ctx, xi).is_zero()
    mcmod.MCElement(ctx, xi)  # constructs without complaint


def test_mc_defect_against_generated_route():
    # brute-force expansion of the three terms through the independent
    # generating-relation bracket route
    ctx = ctx_for("sl3-cartan", order=3)
    l3 = ctx.l3
    first_deg1 = next(nm for nm in l3.basis.names if l3.basis.degree(nm) == 1)
    xi = go.lift(ctx, l3.basis.unit(first_deg1))
    got = mcmod.mc_defect(ctx, xi)
    rng = random.Random(2)
    xi_rat = l3.basis.unit(first_deg1)
    oracle_order2 = so.bracket2_generated(l3, xi_rat, xi_rat).scale(Fraction(1, 2))
    oracle_order3 = so.bracket3_generated(l3, xi_rat, xi_rat, xi_rat).scale(Fraction(1, 6))
    expected = go.lift(ctx, so.d_closed(l3, xi_rat)) + go.lift(ctx, oracle_order2, 2) + go.lift(ctx, oracle_order3, 3)
    assert got == expected
    # and a richer random degree-1 element
    coords = {
        nm: TruncatedPoly(3, [0, rng.randint(-3, 3), rng.randint(-3, 3), 0])
        for nm in l3.basis.names
        if l3.basis.degree(nm) == 1
    }
    xi2 = GradedElement(l3.basis, coords)
    got2 = mcmod.mc_defect(ctx, xi2)
    d = ctx.structure.bracket(1)
    exp2 = (
        d.evaluate([xi2])
        + so.bracket2_generated(l3, xi2, xi2).scale(Fraction(1, 2))
        + so.bracket3_generated(l3, xi2, xi2, xi2).scale(Fraction(1, 6))
    )
    assert got2 == exp2


def test_mc_candidate_validation():
    l3 = central_square_pair()
    ctx = mcmod.MCContext(l3, order=2)
    xi = go.lift(ctx, l3.basis.unit("z1|x") + l3.basis.unit("z2|y"))
    assert not mcmod.mc_defect(ctx, xi).is_zero()
    with pytest.raises(ValueError):
        mcmod.MCElement(ctx, xi)
    with pytest.raises(ValueError):
        mcmod.mc_defect(ctx, GradedElement(l3.basis, {"x": TruncatedPoly(2, [1])}))
    with pytest.raises(ValueError):
        ctx.require_ideal(GradedElement(l3.basis, {"x": Fraction(1)}))


def test_an_mc_element_checks_its_value_once(monkeypatch):
    """The element's own ideal and degree checks run first, so its curvature is the twist alone."""
    ctx = ctx_for("sl3-cartan", order=3)
    xi = mcmod.random_mc_element(ctx, random.Random(0)).value
    calls, require = [], mcmod.MCContext.require_ideal
    monkeypatch.setattr(mcmod.MCContext, "require_ideal", lambda self, *args: calls.append(args[1:]) or require(self, *args))
    assert mcmod.MCElement(ctx, xi).value == xi
    assert calls == [("Maurer-Cartan element",)]
    with pytest.raises(ValueError, match="^Maurer-Cartan element must have order-3 coefficients$"):
        mcmod.MCElement(ctx, GradedElement(ctx.l3.basis, {nm: Fraction(1) for nm in xi.coords}))
    degree_two = next(nm for nm in ctx.l3.basis.names if ctx.l3.basis.degree(nm) == 2)
    with pytest.raises(ValueError, match="^Maurer-Cartan elements have degree 1$"):
        mcmod.MCElement(ctx, GradedElement(ctx.l3.basis, {degree_two: TruncatedPoly(3, [0, 1])}))


def test_twisted_bracket_examples():
    ctx = ctx_for("sl3-cartan", order=4)
    l3 = ctx.l3
    rng = random.Random(4)
    xi = mcmod.random_mc_element(ctx, rng).value
    g = go.lift(ctx, l3.basis.unit(rng.choice(l3.basis.names)))
    st = ctx.structure
    # the unary twisted bracket unrolls to three capped terms
    expect = st.bracket(1).evaluate([g])
    expect = expect + st.bracket(2).evaluate([xi, g])
    expect = expect + st.bracket(3).evaluate([xi, xi, g]).scale(Fraction(1, 2))
    assert mcmod.twisted_bracket(ctx, xi, 1, [g]) == expect
    # zero twist returns the plain bracket
    zero = l3.zero()
    for arity in (1, 2, 3):
        args = [g] * arity
        plain = st.bracket(arity).evaluate(args) if st.bracket(arity) else l3.zero()
        assert mcmod.twisted_bracket(ctx, zero, arity, args) == plain
    assert mcmod.twisted_bracket(ctx, xi, 4, [g, g, g, g]).is_zero()


def test_twisted_bracket_order_one_kills_interactions():
    ctx = ctx_for("sl3-cartan", order=1)
    l3 = ctx.l3
    rng = random.Random(8)
    xi = mcmod.random_mc_element(ctx, rng).value
    g = go.lift(ctx, l3.basis.unit(rng.choice([nm for nm in l3.basis.names])))
    st = ctx.structure
    assert mcmod.twisted_bracket(ctx, xi, 1, [g]) == st.bracket(1).evaluate([g])


def test_gauge_identity_parameter():
    ctx = ctx_for("sl3-cartan", order=3)
    rng = random.Random(21)
    xi = mcmod.random_mc_element(ctx, rng)
    assert mcmod.gauge_getzler(ctx, ctx.l3.zero(), xi).value == xi.value
    zero_der = go.ad_b(ctx, ctx.l3.zero())
    assert mcmod.gauge_h(ctx, go.derivation_action(ctx, zero_der), xi).value == xi.value


def test_gauge_order_one_closed_forms():
    for name in ("sl2", "sl3-cartan", "heisenberg", "aff1"):
        ctx = ctx_for(name, order=1)
        rng = random.Random(31)
        xi = mcmod.random_mc_element(ctx, rng)
        b = mcmod.random_gauge_parameter(ctx, rng)
        st = ctx.structure
        d = st.bracket(1)
        db = d.evaluate([b]) if d is not None else ctx.l3.zero()
        assert mcmod.gauge_getzler(ctx, b, xi).value == xi.value - db
        action = mcmod.ad_b_action(ctx, b)
        assert mcmod.gauge_h(ctx, action, xi).value == xi.value - mcmod.action_curvature(ctx, action)


def test_gauge_worked_example_sl2():
    ctx = ctx_for("sl2", order=2)
    l3 = ctx.l3
    t = TruncatedPoly(ctx.order, [0, 1])
    b = l3.basis.unit("e").scale(t)
    xi = mcmod.MCElement(ctx, l3.basis.unit("h|f").scale(t))
    expected = l3.basis.unit("h|f").scale(t) - l3.basis.unit("h|e").scale(t).scale(2)
    assert mcmod.gauge_getzler(ctx, b, xi).value == expected
    assert mcmod.gauge_h(ctx, go.derivation_action(ctx, go.ad_b(ctx, b)), xi).value == expected
    assert not mcmod.bridge_defects(ctx, b)
    equal, diff = mcmod.check_gauge_coincidence(ctx, b, xi)
    assert equal and diff.is_zero()


def test_gauge_parameter_validation():
    ctx = ctx_for("sl2", order=2)
    l3 = ctx.l3
    rng = random.Random(1)
    xi = mcmod.random_mc_element(ctx, rng)
    with pytest.raises(ValueError):
        mcmod.gauge_getzler(ctx, l3.basis.unit("e"), xi)  # rational coefficients
    bad = l3.basis.unit("h|e").scale(TruncatedPoly(ctx.order, [0, 1]))
    with pytest.raises(ValueError):
        mcmod.gauge_getzler(ctx, bad, xi)  # degree-1 parameter
    with pytest.raises(ValueError):
        go.ad_b(ctx, bad)
    with pytest.raises(ValueError):
        mcmod.ad_b_action(ctx, bad)
    with pytest.raises(ValueError):
        mcmod.bridge_defects(ctx, bad)


def test_gauge_preserves_mc_random():
    # construction of the gauge outputs re-checks the curvature equation
    for name in ("sl3-cartan", "sl3-borel-complement", "heisenberg"):
        ctx = ctx_for(name, order=4)
        rng = random.Random(77)
        for _ in range(3):
            xi = mcmod.random_mc_element(ctx, rng)
            b = mcmod.random_gauge_parameter(ctx, rng)
            out = mcmod.gauge_getzler(ctx, b, xi)
            assert mcmod.mc_defect(ctx, out.value).is_zero()
            out_h = mcmod.gauge_h(ctx, mcmod.ad_b_action(ctx, b), xi)
            assert mcmod.mc_defect(ctx, out_h.value).is_zero()


def test_ad_b_action_equals_tabulating_ad_b():
    for name in ("sl2", "sl3-cartan", "heisenberg", "aff1"):
        ctx = ctx_for(name, order=3)
        b = mcmod.random_gauge_parameter(ctx, random.Random(13))
        layered = go.action_tables(ctx, mcmod.ad_b_action(ctx, b))
        fresh = ActionMaps(ctx.l3, [go.ad_b(ctx, b)])
        assert layered == fresh.maps[0], name  # every arity, the curvature in arity 0 included


def test_ad_b_matrices():
    ctx = ctx_for("sl2", order=2)
    l3 = ctx.l3
    t = TruncatedPoly(ctx.order, [0, 1])
    delta = go.ad_b(ctx, l3.basis.unit("e").scale(t))
    alg = l3.pair.algebra
    assert delta.images["h"] == alg.unit("e").scale(t).scale(-2)
    assert delta.images["f"] == alg.unit("h").scale(t)
    assert delta.images["e"].is_zero()
    assert go.is_derivation(delta)  # derivation identity over the coefficient ring
    heis = ctx_for("heisenberg", order=2)
    dh = go.ad_b(heis, heis.l3.basis.unit("x").scale(TruncatedPoly(heis.order, [0, 1])))
    assert dh.images["y"] == heis.l3.pair.algebra.unit("z").scale(TruncatedPoly(heis.order, [0, 1]))
    assert dh.images["x"].is_zero() and dh.images["z"].is_zero()
    zero = go.ad_b(ctx, l3.zero())
    assert all(v.is_zero() for v in zero.images.values())


def test_bridge_identities_all_pairs():
    for name in ("sl2", "sl3-cartan", "heisenberg", "aff1", "abelian:3"):
        ctx = ctx_for(name, order=2)
        rng = random.Random(5)
        b = mcmod.random_gauge_parameter(ctx, rng)
        assert mcmod.bridge_defects(ctx, b) == [], name


def test_gauge_coincidence_random_small():
    for name in ("sl2", "heisenberg", "aff1"):
        ctx = ctx_for(name, order=4)
        rng = random.Random(99)
        for _ in range(3):
            xi = mcmod.random_mc_element(ctx, rng)
            b = mcmod.random_gauge_parameter(ctx, rng)
            assert not mcmod.bridge_defects(ctx, b), name
            equal, diff = mcmod.check_gauge_coincidence(ctx, b, xi)
            assert equal, (name, diff)


def test_mc_extend_trivial_cases():
    ctx = ctx_for("sl2", order=3)
    l3 = ctx.l3
    xi1 = l3.basis.zero()
    out = mcmod.mc_extend(ctx, xi1)
    assert isinstance(out, mcmod.MCElement) and out.value.is_zero()
    # no degree-2 part: the lifted seed is already a solution
    seed = l3.basis.unit("h|e") + l3.basis.unit("h|f").scale(-2)
    out = mcmod.mc_extend(ctx, seed)
    assert isinstance(out, mcmod.MCElement)
    assert out.value == go.lift(ctx, seed)


def test_mc_extend_rejects_non_closed_seed():
    ctx = ctx_for("sl2", order=2)
    with pytest.raises(ValueError):
        mcmod.mc_extend(ctx, ctx.l3.basis.unit("e"))  # degree 0
    ctx3 = ctx_for("sl3-cartan", order=2)
    l3 = ctx3.l3
    not_closed = l3.basis.unit("h1|e1")
    d = ctx3.structure.bracket(1)
    assert not d.evaluate([not_closed]).is_zero()
    with pytest.raises(ValueError):
        mcmod.mc_extend(ctx3, not_closed)


def test_mc_extend_obstruction_frozen_value():
    l3 = central_square_pair()
    ctx = mcmod.MCContext(l3, order=3)
    seed = l3.basis.unit("z1|x") + l3.basis.unit("z2|y")
    out = mcmod.mc_extend(ctx, seed)
    assert isinstance(out, mcmod.Obstruction)
    assert out.order == 2
    expected = l3.bracket2(seed, seed).scale(Fraction(-1, 2))
    assert out.element == expected
    assert out.element == l3.basis.unit("z1^z2|x").scale(-1)


def test_mc_extend_solves_when_possible():
    ctx = ctx_for("sl3-cartan", order=4)
    rng = random.Random(1234)
    xi = mcmod.random_mc_element(ctx, rng)
    assert mcmod.mc_defect(ctx, xi.value).is_zero()


def test_random_mc_deterministic():
    ctx = ctx_for("sl3-cartan", order=3)
    a = mcmod.random_mc_element(ctx, random.Random(42)).value
    b = mcmod.random_mc_element(ctx, random.Random(42)).value
    assert a == b


def test_gauge_h_with_outer_derivation():
    # the derivation-driven gauge is defined for any derivation with ideal
    # coefficients, not only inner ones; t times the grading derivation of the
    # nilpotent pair is a genuine outer example, reached in the coordinates of
    # the derivation basis
    ctx = ctx_for("heisenberg", order=4)
    l3 = ctx.l3
    alg = l3.pair.algebra
    grading = Derivation(alg, {"x": alg.unit("x"), "y": alg.unit("y"), "z": alg.unit("z").scale(2)})
    assert go.is_derivation(grading)
    inner = [ad(alg, alg.unit(nm)).to_vector() for nm in alg.names]
    assert linalg.in_span(inner, grading.to_vector()) is None  # outer indeed
    action = ActionMaps(l3, derivations(alg))
    coords = go.der_coords(action.ders, grading)
    coeffs = {r: ((1, c),) for r, c in enumerate(coords) if c}
    layered = mcmod.layered_action(ctx, action.integer_entries, coeffs)
    t_grading = go.derivation_sum(alg, [(TruncatedPoly(ctx.order, [0, 1]), grading)])
    assert go.basis_combination(ctx, action.ders, coeffs) == t_grading
    tabulated = go.derivation_action(ctx, t_grading)
    assert go.action_tables(ctx, layered) == go.action_tables(ctx, tabulated)
    rng = random.Random(11)
    xi = mcmod.random_mc_element(ctx, rng)
    out = mcmod.gauge_h(ctx, layered, xi)
    assert mcmod.mc_defect(ctx, out.value).is_zero()
    assert out == mcmod.gauge_h(ctx, tabulated, xi)


def test_gauge_h_rejects_a_layered_action_outside_the_ideal():
    """A constant-term layer on one mu_1 entry that xi never reaches, or on every one, is refused."""
    ctx = ctx_for("sl3-cartan", order=3)
    rng = random.Random(5)
    xi = mcmod.random_mc_element(ctx, rng)
    b = mcmod.random_gauge_parameter(ctx, rng)
    reached = set(xi.value.coords)
    for keys in ("one", "all"):
        action = mcmod.ad_b_action(ctx, b)
        mu1 = action[1]
        chosen = [key for key in mu1 if key[0] not in reached][:1] if keys == "one" else list(mu1)
        assert chosen
        for key in chosen:
            den, layers = mu1[key]
            nm, ls = next(iter(layers.items()))
            mu1[key] = (den, {**layers, nm: ((0, 1),) + ls})
        with pytest.raises(ValueError):
            mcmod.gauge_h(ctx, action, xi)
    assert mcmod.gauge_h(ctx, mcmod.ad_b_action(ctx, b), xi) == mcmod.gauge_getzler(ctx, b, xi)


def test_layered_action_rejects_coefficients_outside_the_ideal():
    ctx = ctx_for("sl3-cartan", order=3)
    tables = ctx.ad_symbols.integer_entries
    assert mcmod.layered_action(ctx, tables, {0: ((1, 2), (3, Fraction(1, 3)))})[1]
    for layers in (((0, 1), (1, 2)), ((2, 1), (4, 1))):
        with pytest.raises(ValueError):
            mcmod.layered_action(ctx, tables, {0: ((1, 1),), 1: layers})


def test_a_dropped_structure_is_freed():
    l3 = L3Pair(catalog.make_pair("sl2"))
    l3.structure()
    l3.bracket2(l3.basis.unit("e"), l3.basis.unit("h|f"))
    ctx = mcmod.MCContext(l3, order=2)
    rng = random.Random(0)
    xi = mcmod.random_mc_element(ctx, rng)
    b = mcmod.random_gauge_parameter(ctx, rng)
    assert not mcmod.bridge_defects(ctx, b)
    assert mcmod.check_gauge_coincidence(ctx, b, xi)[0]
    ref = weakref.ref(l3)
    del l3, ctx, xi, b
    gc.collect()
    assert ref() is None


def test_the_degree_one_differential_is_solved_once_per_context(monkeypatch):
    """Drawing Maurer-Cartan elements builds d's degree-1 matrix and its kernel once per context,
    however many seeds and extensions it tries, and ``closed_directions`` hands out a new list
    each call, so editing one leaves the next intact."""
    builds, solves = [], []
    build, nullspace = mcmod.differential_matrix, linalg.nullspace
    monkeypatch.setattr(mcmod, "differential_matrix", lambda *args: builds.append(args) or build(*args))
    monkeypatch.setattr(linalg, "nullspace", lambda *args: solves.append(args) or nullspace(*args))
    ctx = mcmod.MCContext(L3Pair(catalog.make_pair("sl3-cartan")), order=4)
    rng = random.Random(0)
    for _ in range(3):
        mcmod.random_mc_element(ctx, rng)
        mcmod.mc_extend(ctx, mcmod.closed_seed(ctx, [(d, 1) for d in mcmod.closed_directions(ctx)[:1]]))
    first = mcmod.closed_directions(ctx)
    expected = list(first)
    first.clear()
    assert mcmod.closed_directions(ctx) == expected and expected
    assert len(builds) == 1 and len(solves) == 1


def _coincidence_fails(name, order, seed) -> bool:
    ctx = ctx_for(name, order=order)
    rng = random.Random(seed)
    xi = mcmod.random_mc_element(ctx, rng)
    b = mcmod.random_gauge_parameter(ctx, rng)
    try:
        return not mcmod.check_gauge_coincidence(ctx, b, xi)[0]
    except ValueError:  # the twisted output is no Maurer-Cartan element
        return True


@pytest.mark.parametrize("side", ["_h_input", "_getzler_input"])
def test_a_flipped_twist_sign_on_either_side_fails_the_coincidence(monkeypatch, side):
    """The series runs once only where both (table, sign) inputs agree, so a sign flipped to +1 on
    either side still reaches its own series and breaks the coincidence."""
    build = getattr(mcmod, side)
    monkeypatch.setattr(mcmod, side, lambda *args: (build(*args)[0], 1))
    caught = [name for name in ("sl2", "sl3-cartan", "sl3-borel-complement") if any(_coincidence_fails(name, 3, s) for s in range(3))]
    assert len(caught) >= 2, caught


def test_the_gauge_series_runs_once_per_instance_on_the_catalog(monkeypatch):
    """The ad_b action and the contracted brackets are equal tables on every catalog pair and on
    sl3 rescaled, whose tables are not integral, so ``check_gauge_coincidence`` evaluates one
    series per instance, whether it builds the tables or is handed them."""
    calls = []
    series = mcmod._series
    monkeypatch.setattr(mcmod, "_series", lambda *args: calls.append(args) or series(*args))
    rescaled = L3Pair(report_pair(RESCALED))
    for name in catalog.EXAMPLE_NAMES + (RESCALED,):
        for order in (1, 4):
            ctx = mcmod.MCContext(rescaled, order=order) if name == RESCALED else ctx_for(name, order=order)
            rng = random.Random(order)
            for given in (False, True):
                xi = mcmod.random_mc_element(ctx, rng)
                b = mcmod.random_gauge_parameter(ctx, rng)
                tables = mcmod.ad_b_action(ctx, b), mcmod.contracted_brackets(ctx, b)
                assert tables[0] == tables[1], name
                del calls[:]
                assert mcmod.check_gauge_coincidence(ctx, b, xi, tables if given else None)[0], name
                assert len(calls) == 1, (name, order)


def composition_mismatches(name: str) -> list:
    """(order, seed) of the draws, orders 2-4 and seeds 0-5, where either action of ``mc.gauge_actions`` differs
    from ``gauge_oracle.gauge_series_by_compositions`` of its table, or the series' result fails its curvature
    re-check."""
    l3 = L3Pair(report_pair(name))
    found = []
    for order in (2, 3, 4):
        ctx = mcmod.MCContext(l3, order=order)
        for seed in range(6):
            rng = random.Random(seed)
            xi = mcmod.random_mc_element(ctx, rng)
            b = mcmod.random_gauge_parameter(ctx, rng)
            tables = mcmod.ad_b_action(ctx, b), mcmod.contracted_brackets(ctx, b)
            try:
                actions = mcmod.gauge_actions(ctx, b, xi, tables)
            except ValueError:
                found.append((order, seed))
                continue
            if any(got.value != go.gauge_series_by_compositions(ctx, xi, table, -1) for got, table in zip(actions, tables)):
                found.append((order, seed))
    return found


@pytest.mark.parametrize("name", catalog.EXAMPLE_NAMES + (RESCALED,))
def test_the_gauge_series_equals_the_sum_over_every_composition(name):
    """The folded pair weights of ``mc._gauge_series`` (one binomial per unordered pair, halved on the
    diagonal) against the recursion's literal formula with factorial weights, on every catalog pair and
    sl3 rescaled."""
    assert composition_mismatches(name) == []


def test_the_composition_reference_catches_the_pair_binomial_patch(monkeypatch):
    """With the registry's "pair binomial replaced by 1" patch, the reference differs on sl2 too, where
    ``check gauge`` passes: A has dimension 1, so there are no degree-2 forms and the curvature re-check
    reads no weight.  On the other four pairs term([e_1, e_1]) vanishes on these draws, so there the
    patch changes nothing."""
    mu.apply(next(row for row in mu.REGISTRY if row.name == "pair binomial replaced by 1"), monkeypatch)
    caught = {name for name in catalog.EXAMPLE_NAMES + (RESCALED,) if composition_mismatches(name)}
    assert caught == {"sl2", "sl3-cartan", RESCALED}


def in_lowest_terms(value) -> bool:
    """Whether a layered value (D, {symbol: integer layers}) has D > 0 and gcd(D, all its integers) = 1."""
    den, layered = value
    return den > 0 and gcd(den, *(a for layers in layered.values() for _, a in layers)) == 1


@pytest.mark.parametrize("name", catalog.EXAMPLE_NAMES + (RESCALED,))
def test_every_layered_value_is_in_lowest_terms(name, monkeypatch):
    """Every value ``_layered`` returns, every xi, argument (a gauge correction, in a series) and result of
    ``_Twist`` and every entry ``layered_action`` returns is in lowest terms, for integral and fractional b;
    so the ad_b action and the contracted brackets, where ``bridge_defects`` finds them equal, are equal dicts."""
    seen = {"layered": [], "xi": [], "argument": [], "result": [], "entry": []}
    layered, init, call, action = mcmod._layered, mcmod._Twist.__init__, mcmod._Twist.__call__, mcmod.layered_action

    def twist_init(twist, ctx, tables, xi, *rest, **kw):
        seen["xi"].append(xi)
        init(twist, ctx, tables, xi, *rest, **kw)

    def twist_call(twist, args):
        seen["argument"].extend(args)
        out = call(twist, args)
        seen["result"].append(out)
        return out

    def entries(*args):
        out = action(*args)
        seen["entry"].extend(val for table in out.values() for val in table.values())
        return out

    def scaled_once(elem):
        out = layered(elem)
        seen["layered"].append(out)
        return out

    monkeypatch.setattr(mcmod, "_layered", scaled_once)
    monkeypatch.setattr(mcmod._Twist, "__init__", twist_init)
    monkeypatch.setattr(mcmod._Twist, "__call__", twist_call)
    monkeypatch.setattr(mcmod, "layered_action", entries)
    ctx = mcmod.MCContext(L3Pair(report_pair(name)), order=3)
    rng = random.Random(name)
    for b in (mcmod.random_gauge_parameter(ctx, rng), go.fractional_parameter(ctx, rng), go.fractional_parameter(ctx, rng)):
        xi = mcmod.random_mc_element(ctx, rng)
        tables = mcmod.ad_b_action(ctx, b), mcmod.contracted_brackets(ctx, b)
        assert mcmod.bridge_defects(ctx, b, tables) == [] and tables[0] == tables[1], name
        mcmod.gauge_actions(ctx, b, xi, tables)
    assert all(in_lowest_terms(v) for values in seen.values() for v in values), name
    # the fractional b put denominators above 1 into every kind of value, but on abelian:3 nothing is stored
    assert all(any(v[0] > 1 for v in values) for values in seen.values()) == (name != "abelian:3"), name
