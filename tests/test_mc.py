import gc
import json
import random
import re
import weakref
from fractions import Fraction
from math import gcd

import pytest

from l3pair import catalog, linalg
from l3pair import mc as mcmod
from l3pair.deraction import ActionMaps, Derivation, ad, derivations
from l3pair.lie import LieAlgebra, LiePair
from l3pair.liepair import L3Pair
from l3pair.vectors import GradedElement

import gauge_oracle as go
import mutations as mu
import ring_oracle as ro
import structure_oracle as so
from ring_oracle import TruncatedPoly
from helpers import RESCALED, get_l3, report_pair, run_report_text


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
    assert mcmod.mc_defect(ctx, ro.layered(ctx.l3.zero())) == (1, {})


def test_mc_defect_vanishes_when_no_degree_two():
    ctx = ctx_for("sl2", order=3)
    xi = ro.layered(go.lift(ctx, ctx.l3.basis.unit("h|e") + ctx.l3.basis.unit("h|f").scale(5)))
    assert mcmod.mc_defect(ctx, xi) == (1, {})
    mcmod.MCElement(ctx, xi)  # constructs without complaint


def test_mc_defect_against_generated_route():
    # brute-force expansion of the three terms through the independent
    # generating-relation bracket route
    ctx = ctx_for("sl3-cartan", order=3)
    l3 = ctx.l3
    first_deg1 = next(nm for nm in l3.basis.names if l3.basis.degree(nm) == 1)
    xi = go.lift(ctx, l3.basis.unit(first_deg1))
    got = ro.element(ctx, mcmod.mc_defect(ctx, ro.layered(xi)))
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
    got2 = ro.element(ctx, mcmod.mc_defect(ctx, ro.layered(xi2)))
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
    xi = ro.layered(go.lift(ctx, l3.basis.unit("z1|x") + l3.basis.unit("z2|y")))
    assert mcmod.mc_defect(ctx, xi)[1]
    with pytest.raises(ValueError):
        mcmod.MCElement(ctx, xi)
    with pytest.raises(ValueError):
        mcmod.mc_defect(ctx, ro.layered(GradedElement(l3.basis, {"x": TruncatedPoly(2, [1])})))
    with pytest.raises(ValueError):
        ctx.require_ideal(ro.layered(GradedElement(l3.basis, {"x": Fraction(1)})), "element", 0)


def test_an_mc_element_checks_its_value_once(monkeypatch):
    """The element's own ideal and degree checks run first, so its curvature is the twist alone."""
    ctx = ctx_for("sl3-cartan", order=3)
    xi = mcmod.random_mc_element(ctx, random.Random(0)).value
    calls, require = [], mcmod.MCContext.require_ideal
    monkeypatch.setattr(mcmod.MCContext, "require_ideal", lambda self, *args: calls.append(args[1:]) or require(self, *args))
    assert mcmod.MCElement(ctx, xi).value == xi
    assert calls == [("Maurer-Cartan element", 1)]
    with pytest.raises(ValueError, match="^Maurer-Cartan element must have order-3 coefficients$"):
        mcmod.MCElement(ctx, ro.layered(GradedElement(ctx.l3.basis, {nm: TruncatedPoly(4, [0, 0, 0, 0, 1]) for nm in xi[1]})))
    degree_two = next(nm for nm in ctx.l3.basis.names if ctx.l3.basis.degree(nm) == 2)
    with pytest.raises(ValueError, match="^Maurer-Cartan elements have degree 1$"):
        mcmod.MCElement(ctx, ro.layered(GradedElement(ctx.l3.basis, {degree_two: TruncatedPoly(3, [0, 1])})))


@pytest.mark.parametrize("what, degree", [("Maurer-Cartan candidate", 1), ("gauge parameter", 0), ("bracketing parameter", 0)])
def test_the_layered_input_checks_reject_a_constant_layer_a_layer_above_n_and_a_wrong_degree(what, degree):
    """Each public entry that reads a layered value refuses a t^0 layer, a layer above t^N and a symbol of the
    wrong degree with one ValueError naming what it read; the ring oracle's ideal check, which leaves degrees to
    its callers, refuses the same elements."""
    ctx = ctx_for("sl3-cartan", order=3)
    space = ctx.l3.basis
    right, wrong = (next(nm for nm in space.names if space.degree(nm) == d) for d in (degree, 1 - degree))
    constant, above, degrees = ("%s has a nonzero constant term at %r" % (what, right), "%s must have order-3 coefficients" % what,
                                "%ss have degree %d" % (what, degree))
    cases = [
        ({right: TruncatedPoly(3, [2, 1])}, constant),
        ({right: Fraction(-1, 2)}, constant),
        ({right: TruncatedPoly(4, [0, 1, 0, 0, 3])}, above),
        ({wrong: TruncatedPoly(3, [0, 1])}, degrees),
        ({right: TruncatedPoly(3, [0, 1]), wrong: TruncatedPoly(3, [0, 0, 1])}, degrees),
    ]
    zero = mcmod.MCElement(ctx, (1, {}))
    check = {"Maurer-Cartan candidate": lambda b: mcmod.mc_defect(ctx, b), "gauge parameter": lambda b: mcmod.gauge_getzler(ctx, b, zero),
             "bracketing parameter": lambda b: mcmod.ad_b_action(ctx, b)}[what]
    for coords, message in cases:
        elem = GradedElement(space, coords)
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            check(ro.layered(elem))
        if message != degrees:
            with pytest.raises(ValueError):
                ro.require_ideal(ctx, elem, what)
    accepted = ro.layered(GradedElement(space, {right: TruncatedPoly(3, [0, Fraction(1, 3), 0, -2])}))
    ctx.require_ideal(accepted, what, degree)
    ctx.require_ideal((1, {}), what, degree)


def test_twisted_bracket_examples():
    ctx = ctx_for("sl3-cartan", order=4)
    l3 = ctx.l3
    rng = random.Random(4)
    xi = mcmod.random_mc_element(ctx, rng).value
    g = go.lift(ctx, l3.basis.unit(rng.choice(l3.basis.names)))
    xe, lg = ro.element(ctx, xi), ro.layered(g)
    st = ctx.structure
    # the unary twisted bracket unrolls to three capped terms
    expect = st.bracket(1).evaluate([g])
    expect = expect + st.bracket(2).evaluate([xe, g])
    expect = expect + st.bracket(3).evaluate([xe, xe, g]).scale(Fraction(1, 2))
    assert ro.element(ctx, mcmod.twisted_bracket(ctx, xi, 1, [lg])) == expect
    # zero twist returns the plain bracket
    zero = (1, {})
    for arity in (1, 2, 3):
        args = [g] * arity
        plain = st.bracket(arity).evaluate(args) if st.bracket(arity) else l3.zero()
        assert ro.element(ctx, mcmod.twisted_bracket(ctx, zero, arity, [lg] * arity)) == plain
    assert mcmod.twisted_bracket(ctx, xi, 4, [lg] * 4) == (1, {})


def test_twisted_bracket_order_one_kills_interactions():
    ctx = ctx_for("sl3-cartan", order=1)
    l3 = ctx.l3
    rng = random.Random(8)
    xi = mcmod.random_mc_element(ctx, rng).value
    g = go.lift(ctx, l3.basis.unit(rng.choice([nm for nm in l3.basis.names])))
    st = ctx.structure
    assert ro.element(ctx, mcmod.twisted_bracket(ctx, xi, 1, [ro.layered(g)])) == st.bracket(1).evaluate([g])


def test_gauge_identity_parameter():
    ctx = ctx_for("sl3-cartan", order=3)
    rng = random.Random(21)
    xi = mcmod.random_mc_element(ctx, rng)
    assert mcmod.gauge_getzler(ctx, (1, {}), xi).value == xi.value
    zero_der = go.ad_b(ctx, (1, {}))
    assert mcmod.gauge_h(ctx, go.derivation_action(ctx, zero_der), xi).value == xi.value


def test_gauge_order_one_closed_forms():
    for name in ("sl2", "sl3-cartan", "heisenberg", "aff1"):
        ctx = ctx_for(name, order=1)
        rng = random.Random(31)
        xi = mcmod.random_mc_element(ctx, rng)
        b = mcmod.random_gauge_parameter(ctx, rng)
        st = ctx.structure
        d = st.bracket(1)
        db = d.evaluate([ro.element(ctx, b)]) if d is not None else ctx.l3.zero()
        xe = ro.element(ctx, xi.value)
        assert ro.element(ctx, mcmod.gauge_getzler(ctx, b, xi).value) == xe - db
        action = mcmod.ad_b_action(ctx, b)
        assert ro.element(ctx, mcmod.gauge_h(ctx, action, xi).value) == xe - ro.element(ctx, mcmod.action_curvature(ctx, action))


def test_gauge_worked_example_sl2():
    ctx = ctx_for("sl2", order=2)
    l3 = ctx.l3
    t = TruncatedPoly(ctx.order, [0, 1])
    b = ro.layered(l3.basis.unit("e").scale(t))
    xi = mcmod.MCElement(ctx, ro.layered(l3.basis.unit("h|f").scale(t)))
    expected = l3.basis.unit("h|f").scale(t) - l3.basis.unit("h|e").scale(t).scale(2)
    assert ro.element(ctx, mcmod.gauge_getzler(ctx, b, xi).value) == expected
    assert ro.element(ctx, mcmod.gauge_h(ctx, go.derivation_action(ctx, go.ad_b(ctx, b)), xi).value) == expected
    assert not mcmod.bridge_defects(ctx, b)
    equal, diff = mcmod.check_gauge_coincidence(ctx, b, xi)
    assert equal and diff == (1, {})


def test_gauge_parameter_validation():
    ctx = ctx_for("sl2", order=2)
    l3 = ctx.l3
    rng = random.Random(1)
    xi = mcmod.random_mc_element(ctx, rng)
    with pytest.raises(ValueError):
        mcmod.gauge_getzler(ctx, ro.layered(l3.basis.unit("e")), xi)  # rational coefficients
    bad = ro.layered(l3.basis.unit("h|e").scale(TruncatedPoly(ctx.order, [0, 1])))
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
            assert mcmod.mc_defect(ctx, out.value) == (1, {})
            out_h = mcmod.gauge_h(ctx, mcmod.ad_b_action(ctx, b), xi)
            assert mcmod.mc_defect(ctx, out_h.value) == (1, {})


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
    delta = go.ad_b(ctx, ro.layered(l3.basis.unit("e").scale(t)))
    alg = l3.pair.algebra
    assert delta.images["h"] == alg.unit("e").scale(t).scale(-2).coords
    assert delta.images["f"] == alg.unit("h").scale(t).coords
    assert not delta.images["e"]
    assert go.is_derivation(delta)  # derivation identity over the coefficient ring
    heis = ctx_for("heisenberg", order=2)
    dh = go.ad_b(heis, ro.layered(heis.l3.basis.unit("x").scale(TruncatedPoly(heis.order, [0, 1]))))
    assert dh.images["y"] == heis.l3.pair.algebra.unit("z").scale(TruncatedPoly(heis.order, [0, 1])).coords
    assert not dh.images["x"] and not dh.images["z"]
    zero = go.ad_b(ctx, (1, {}))
    assert not any(zero.images.values())


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
    assert isinstance(out, mcmod.MCElement) and out.value == (1, {})
    # no degree-2 part: the lifted seed is already a solution
    seed = l3.basis.unit("h|e") + l3.basis.unit("h|f").scale(-2)
    out = mcmod.mc_extend(ctx, seed)
    assert isinstance(out, mcmod.MCElement)
    assert ro.element(ctx, out.value) == go.lift(ctx, seed)


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
    assert out.order == 2 and out.decided
    expected = l3.bracket2(seed, seed).scale(Fraction(-1, 2))
    assert out.element == expected
    assert out.element == l3.basis.unit("z1^z2|x").scale(-1)


def test_an_order_three_failure_is_undecided_where_a_free_order_two_term_extends(tmp_path, monkeypatch):
    """``compute mc-extend --order 4 --seed 66`` on sl3-borel-complement fails the order-3 solve for the t^2
    term ``mc_extend`` chose, so it reports ``undecided`` at order 3, not ``obstructed``: with the t^2 term left
    free over the closed directions z_i, the order-3 system [d | l_2(xi_1, z_i)] (xi_3, z) = -c_3, the columns
    read as differences of ``mc_defect``, is solvable, and the re-solved partial sum kills the curvature through t^3."""
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_report_text("sl3-borel-complement", ["compute", "mc-extend", "--order", "4", "--seed", "66"])
    report = json.loads(out)
    assert code == 0 and report["status"] == "undecided" and report["undecided_order"] == 3
    assert "obstruction" not in report and "element" not in report
    ctx = ctx_for("sl3-borel-complement", order=4)
    rng = random.Random(66)
    directions = mcmod.closed_directions(ctx)
    seed = mcmod.closed_seed(ctx, ((d, rng.randint(-3, 3)) for d in directions))
    assert seed.to_json() == report["seed_element"]
    out = mcmod.mc_extend(ctx, seed)
    assert isinstance(out, mcmod.Obstruction) and out.order == 3 and not out.decided
    deg1, deg2, rows = ctx.degree1_matrix

    def layer(value, m):
        """The t^m layer of the curvature of a layered value, by degree-2 name."""
        den, curv = mcmod.mc_defect(ctx, value)
        return [Fraction(dict(curv.get(nm, ())).get(m, 0), den) for nm in deg2]

    def plus(value, m, coords):
        """value + t^m sum c_nm e_nm over (name, rational) pairs."""
        return ro.layered(ro.element(ctx, value) + go.lift(ctx, GradedElement(ctx.l3.basis, dict(coords)), m))

    low = mcmod.mc_extend(ctx_for("sl3-borel-complement", order=2), seed).value  # the same t and t^2 terms
    c3 = layer(low, 3)
    assert out.element == GradedElement(ctx.l3.basis, {nm: -c for nm, c in zip(deg2, c3)})
    assert linalg.solve(rows, [-c for c in c3]) is None
    columns = [[a - c for a, c in zip(layer(plus(low, 2, z.coords.items()), 3), c3)] for z in directions]
    sol = linalg.solve([row + [col[i] for col in columns] for i, row in enumerate(rows)], [-c for c in c3])
    assert sol is not None
    xi3, z = sol[:len(deg1)], sol[len(deg1):]
    free = sum((d.scale(c) for d, c in zip(directions, z)), ctx.l3.zero())
    witness = plus(plus(low, 2, free.coords.items()), 3, zip(deg1, xi3))
    assert all(layer(witness, m) == [0] * len(deg2) for m in (1, 2, 3))


def test_mc_extend_solves_when_possible():
    ctx = ctx_for("sl3-cartan", order=4)
    rng = random.Random(1234)
    xi = mcmod.random_mc_element(ctx, rng)
    assert mcmod.mc_defect(ctx, xi.value) == (1, {})


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
    grading = Derivation(alg, {"x": {"x": 1}, "y": {"y": 1}, "z": {"z": 2}})
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
    assert mcmod.mc_defect(ctx, out.value) == (1, {})
    assert out == mcmod.gauge_h(ctx, tabulated, xi)


def test_gauge_h_rejects_a_layered_action_outside_the_ideal():
    """A constant-term layer on one mu_1 entry that xi never reaches, or on every one, is refused."""
    ctx = ctx_for("sl3-cartan", order=3)
    rng = random.Random(5)
    xi = mcmod.random_mc_element(ctx, rng)
    b = mcmod.random_gauge_parameter(ctx, rng)
    reached = set(xi.value[1])
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
            if any(ro.element(ctx, got.value) != go.gauge_series_by_compositions(ctx, xi, table, -1) for got, table in zip(actions, tables)):
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
    """Every value an ``MCElement`` holds, every xi, argument (a gauge correction, in a series) and result of
    ``_Twist`` and every entry ``layered_action`` returns is in lowest terms, for integral and fractional b;
    so the ad_b action and the contracted brackets, where ``bridge_defects`` finds them equal, are equal dicts,
    and so are two equal Maurer-Cartan elements' values."""
    seen = {"element": [], "xi": [], "argument": [], "result": [], "entry": []}
    element, init, call, action = mcmod.MCElement.__init__, mcmod._Twist.__init__, mcmod._Twist.__call__, mcmod.layered_action

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

    def element_init(elem, ctx, value):
        seen["element"].append(value)
        element(elem, ctx, value)

    monkeypatch.setattr(mcmod.MCElement, "__init__", element_init)
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
