"""Acceptance gate: every criterion at exact (zero-tolerance) rational equality.

Each test prints one pass/fail line; run with ``pytest tests/test_acceptance.py -v -s``
to see them inline.  All comparisons are exact; there are no tolerances to tune.
"""

import random
import time
from fractions import Fraction

from l3pair import deraction as da
from l3pair import mc as mcmod
from l3pair.graded import shift_table
from l3pair.linfty import (
    brackets_to_codifferential,
    compose,
    iter_normalized_tuples,
    square_defects,
)

import structure_oracle as so
import gauge_oracle as go
import ring_oracle as ro
from helpers import get_l3, jacobi_walk, theta_gamma

PAIR_NAMES = ("sl2", "sl3-cartan", "sl3-borel-complement", "heisenberg", "aff1", "abelian:3")

_action_cache = {}


def get_action(name):
    if name not in _action_cache:
        l3 = get_l3(name)
        _action_cache[name] = da.ActionMaps(l3, da.derivations(l3.pair.algebra))
    return _action_cache[name]


def report(k, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = " [%s]" % detail if detail else ""
    print("ACCEPTANCE %d %s: %s%s" % (k, description, status, suffix))
    assert ok, "criterion %d failed: %s %s" % (k, description, detail)


def test_criterion_1_jacobi_and_codifferential():
    ok = True
    detail = []
    for name in PAIR_NAMES:
        t0 = time.time()
        st = get_l3(name).structure()
        fails, square = jacobi_walk(st, range(1, 6), 6)
        defects = square_defects(square.items())
        dt = time.time() - t0
        detail.append("%s %.1fs" % (name, dt))
        if fails or defects:
            ok = False
            detail.append("%s: %d jacobi, %d square defects" % (name, len(fails), len(defects)))
    report(1, "higher Jacobi rules and square-zero codifferential on all pairs", ok, ", ".join(detail))


def test_criterion_2_bracket_route_cross_check():
    bad = []
    for name in PAIR_NAMES:
        l3 = get_l3(name)
        for key in iter_normalized_tuples(l3.basis, 2, False):
            a = l3.bracket2(l3.basis.unit(key[0]), l3.basis.unit(key[1]))
            b = so.bracket2_generated(l3, l3.basis.unit(key[0]), l3.basis.unit(key[1]))
            if a != b:
                bad.append((name, key))
        for key in iter_normalized_tuples(l3.basis, 3, False):
            a = so.bracket3(l3, *[l3.basis.unit(nm) for nm in key])
            b = so.bracket3_generated(l3, *[l3.basis.unit(nm) for nm in key])
            if a != b:
                bad.append((name, key))
    report(2, "closed shuffle formulas equal generating-relation evaluation", not bad, str(bad[:3]) if bad else "")


def test_criterion_3_action_axioms_properties_and_mutation():
    ok = True
    details = []
    for name in PAIR_NAMES:
        action = get_action(name)
        defects = da.check_action_axioms(theta_gamma(action))
        if defects:
            ok = False
            details.append("%s axioms: %d" % (name, len(defects)))
        l3 = action.l3
        for r, delta in enumerate(action.ders):
            c = Fraction(3, 2)
            if da.kappa(l3, go.derivation_sum(l3.pair.algebra, [(c, delta)])) != action.maps[r][0].evaluate([]).scale(c):
                ok = False
                details.append("%s linearity der%d" % (name, r))
        for r in range(action.dim()):
            mu1 = action.maps[r][1]
            mu2 = action.maps[r][2]
            delta = action.ders[r]
            for w_nm in so.scalar_basis(l3).names:
                w = so.scalar_basis(l3).unit(w_nm)
                wdeg = so.scalar_basis(l3).degree(w_nm)
                rho1 = so.varrho1(l3, delta, w)
                for x_nm in l3.basis.names:
                    x = l3.basis.unit(x_nm)
                    lhs = mu1.evaluate([so.module_product(l3, w, x)])
                    rhs = so.module_product(l3, rho1, x) + so.module_product(l3, w, mu1.evaluate([x]))
                    if lhs != rhs:
                        ok = False
                        details.append("%s (ii) der%d %s %s" % (name, r, w_nm, x_nm))
                    xdeg = l3.basis.degree(x_nm)
                    rho2 = so.varrho2(l3, delta, x, w)
                    sgn = -1 if (wdeg * (1 + xdeg)) % 2 else 1
                    for y_nm in l3.basis.names:
                        y = l3.basis.unit(y_nm)
                        lhs2 = mu2.evaluate([x, so.module_product(l3, w, y)])
                        rhs2 = so.module_product(l3, rho2, y) + so.module_product(
                            l3, w, mu2.evaluate([x, y])
                        ).scale(sgn)
                        if lhs2 != rhs2:
                            ok = False
                            details.append("%s (iii) der%d %s %s %s" % (name, r, w_nm, x_nm, y_nm))
    # mutation: one sign flip in the degree-0 action must be detected
    l3 = get_l3("sl2")
    mutated = da.ActionMaps(l3, da.derivations(l3.pair.algebra))
    flipped = False
    for r in range(mutated.dim()):
        for key, val in mutated.maps[r][1].values.items():
            mutated.maps[r][1].values[key] = -val
            flipped = True
            break
        if flipped:
            break
    if not da.check_action_axioms(theta_gamma(mutated)):
        ok = False
        details.append("mutation not detected")
    report(3, "derivation action axioms, module properties, mutation detection", ok, "; ".join(details[:4]))


def test_criterion_4_two_formulations_agree():
    ok = True
    details = []
    for name in PAIR_NAMES:
        action = get_action(name)
        tg = theta_gamma(action)
        direct, transported = da.check_action_axioms(tg), da.check_theta_gamma(tg)
        if bool(direct) != bool(transported) or direct or transported:
            ok = False
            details.append("%s: direct=%d transported=%d" % (name, len(direct), len(transported)))
        st = action.l3.structure()
        for k, table in st.brackets.items():
            if shift_table(shift_table(table)) != table:
                ok = False
                details.append("%s: shift round-trip arity %d" % (name, k))
        # the action-map dictionary round-trips: rebuilding the tabulated
        # maps from the transported components recovers them exactly
        base = action.l3.basis
        for r in range(action.dim()):
            from l3pair.vectors import GradedElement

            back0 = {key: GradedElement(base, dict(val.coords)) for n, key, val in tg.psis[r].items() if n == 0}
            if back0 != action.maps[r][0].values:
                ok = False
                details.append("%s: curvature round-trip der%d" % (name, r))
            t1 = tg.psis[r].component(1)
            back1 = {key: GradedElement(base, dict(val.coords)) for key, val in (t1.values.items() if t1 else ())}
            if back1 != action.maps[r][1].values:
                ok = False
                details.append("%s: unary round-trip der%d" % (name, r))
            t2 = tg.psis[r].component(2)
            back2 = {}
            for key, val in (t2.values.items() if t2 else ()):
                sgn = 1 if base.degree(key[0]) % 2 else -1
                back2[key] = GradedElement(base, {k2: sgn * c for k2, c in val.coords.items()})
            if back2 != action.maps[r][2].values:
                ok = False
                details.append("%s: pairing round-trip der%d" % (name, r))
    report(4, "direct and coalgebra formulations of the action agree", ok, "; ".join(details))


def test_criterion_5_extended_structure():
    ok = True
    details = []
    for name in ("sl2", "aff1"):
        action = get_action(name)
        ext = da.ExtendedStructure(theta_gamma(action))
        E = go.materialized(ext)
        defects = square_defects(compose(E, E, 6).items())
        if defects:
            ok = False
            details.append("%s: %d square defects" % (name, len(defects)))
        if ext.violations():
            ok = False
            details.append("%s: structural violations" % name)
        Q = brackets_to_codifferential(action.l3.structure())
        restr = go.restricted_to_forms(ext)
        for k, table in Q.components.items():
            sub = restr.component(k)
            if sub is None or set(sub.values) != set(table.values) or any(
                dict(sub.values[key].coords) != dict(val.coords) for key, val in table.values.items()
            ):
                ok = False
                details.append("%s: restriction differs at arity %d" % (name, k))
        extra = set(restr.components) - set(Q.components)
        if extra:
            ok = False
            details.append("%s: extra form components %s" % (name, sorted(extra)))
    report(5, "extended codifferential squares to zero and restricts correctly", ok, "; ".join(details))


def test_criterion_6_semisimple_example_reproduction():
    ok = True
    details = []

    # sl2: single positive root, Cartan pairing 2
    l3 = get_l3("sl2")
    alg = l3.pair.algebra
    ad = lambda nm: da.ad(alg, alg.unit(nm))
    checks = [
        da.kappa(l3, ad("e")) == l3.basis.unit("h|e").scale(2),
        da.kappa(l3, ad("f")) == l3.basis.unit("h|f").scale(-2),
        da.kappa(l3, ad("h")).is_zero(),
        da.act1(l3, ad("h"), l3.basis.unit("e")) == l3.basis.unit("e").scale(2),
        da.act1(l3, ad("h"), l3.basis.unit("f")) == l3.basis.unit("f").scale(-2),
        da.act1(l3, ad("e"), l3.basis.unit("f")).is_zero(),
        da.act1(l3, ad("f"), l3.basis.unit("e")).is_zero(),
        so.varrho2(l3, ad("e"), l3.basis.unit("f"), so.scalar_basis(l3).unit("h"))
        == so.scalar_basis(l3).unit("1").scale(-1),
    ]
    ders = da.derivations(alg)
    checks.append(len(ders) == 3)
    from l3pair import linalg

    inner = [da.ad(alg, alg.unit(nm)).to_vector() for nm in alg.names]
    checks.append(all(linalg.in_span(inner, d.to_vector()) is not None for d in ders))
    for d in ders:
        for b1 in l3.pair.b_names:
            for b2 in l3.pair.b_names:
                checks.append(go.act2(l3, d, l3.basis.unit(b1), l3.basis.unit(b2)).is_zero())
    if not all(checks):
        ok = False
        details.append("sl2: %d/%d" % (sum(map(bool, checks)), len(checks)))

    # rank-two case against its integer structure constants
    l33 = get_l3("sl3-cartan")
    alg3 = l33.pair.algebra
    ad3 = lambda nm: da.ad(alg3, alg3.unit(nm))
    cartan = {  # pairing of each root with the two diagonal generators
        "e1": (2, -1),
        "e2": (-1, 2),
        "e3": (1, 1),
    }
    checks3 = []
    for pos, (c1, c2) in cartan.items():
        neg = "f" + pos[1]
        expect = l33.basis.unit("h1|" + pos).scale(c1) + l33.basis.unit("h2|" + pos).scale(c2)
        checks3.append(da.kappa(l33, ad3(pos)) == expect)
        expect_n = l33.basis.unit("h1|" + neg).scale(-c1) + l33.basis.unit("h2|" + neg).scale(-c2)
        checks3.append(da.kappa(l33, ad3(neg)) == expect_n)
        checks3.append(da.act1(l33, ad3("h1"), l33.basis.unit(pos)) == l33.basis.unit(pos).scale(c1))
        checks3.append(da.act1(l33, ad3("h2"), l33.basis.unit(pos)) == l33.basis.unit(pos).scale(c2))
    for h in ("h1", "h2"):
        checks3.append(da.kappa(l33, ad3(h)).is_zero())
    # raising actions with the integer constants of the root chain
    checks3.append(da.act1(l33, ad3("e1"), l33.basis.unit("e2")) == l33.basis.unit("e3"))
    checks3.append(da.act1(l33, ad3("e2"), l33.basis.unit("f3")) == l33.basis.unit("f1"))
    for pos, neg in (("e1", "f1"), ("e2", "f2"), ("e3", "f3")):
        checks3.append(da.act1(l33, ad3(pos), l33.basis.unit(neg)).is_zero())
    for d_nm in ("h1", "e1", "f2"):
        for b1 in l33.pair.b_names:
            for b2 in l33.pair.b_names:
                checks3.append(go.act2(l33, ad3(d_nm), l33.basis.unit(b1), l33.basis.unit(b2)).is_zero())
    coroot = {"e1": {"h1": 1}, "e2": {"h2": 1}, "e3": {"h1": 1, "h2": 1}}
    from l3pair.vectors import GradedElement

    for pos, cr in coroot.items():
        neg = "f" + pos[1]
        e_alpha = GradedElement(alg3.basis, {k: Fraction(v) for k, v in cr.items()})
        for w_nm in so.scalar_basis(l33).names:
            w = so.scalar_basis(l33).unit(w_nm)
            wdeg = so.scalar_basis(l33).degree(w_nm)
            X = so.module_product(l33, w, l33.basis.unit(neg))
            for wp_nm in so.scalar_basis(l33).names:
                wp = so.scalar_basis(l33).unit(wp_nm)
                lhs = so.varrho2(l33, ad3(pos), X, wp)
                rhs = so.wedge(l33, w, so.interior(l33, e_alpha, wp)).scale(1 if wdeg % 2 else -1)
                checks3.append(lhs == rhs)
    checks3.append(len(da.derivations(alg3)) == 8)
    if not all(checks3):
        ok = False
        details.append("sl3: %d/%d" % (sum(map(bool, checks3)), len(checks3)))
    report(6, "semisimple example values against Chevalley constants", ok, "; ".join(details))


def test_criterion_7_gauge_coincidence():
    ok = True
    details = []
    t_start = time.time()
    for name in PAIR_NAMES:
        l3 = get_l3(name)
        for order in (1, 2, 3, 4):
            ctx = mcmod.MCContext(l3, order=order)
            rng = random.Random(1000 * order + sum(map(ord, name)))
            for i in range(25):
                xi = mcmod.random_mc_element(ctx, rng)
                b = mcmod.random_gauge_parameter(ctx, rng)
                if i == 0 and mcmod.bridge_defects(ctx, b):
                    ok = False
                    details.append("%s N=%d: bridge identities fail" % (name, order))
                equal, diff = mcmod.check_gauge_coincidence(ctx, b, xi)
                if not equal:
                    ok = False
                    details.append("%s N=%d instance %d" % (name, order, i))
                out = mcmod.gauge_getzler(ctx, b, xi)
                if mcmod.mc_defect(ctx, out.value)[1]:
                    ok = False
                    details.append("%s N=%d: output leaves the solution set" % (name, order))
    dt = time.time() - t_start
    report(7, "derivation gauge equals classical gauge on 600 seeded instances", ok, "%.1fs; %s" % (dt, "; ".join(details[:3])))


def test_criterion_8_order_one_closed_forms_and_valuation():
    ok = True
    details = []
    for name in PAIR_NAMES:
        l3 = get_l3(name)
        ctx = mcmod.MCContext(l3, order=1)
        rng = random.Random(8)
        xi = mcmod.random_mc_element(ctx, rng)
        b = mcmod.random_gauge_parameter(ctx, rng)
        st = ctx.structure
        d = st.bracket(1)
        db = d.evaluate([ro.element(ctx, b)]) if d is not None else l3.zero()
        xe = ro.element(ctx, xi.value)
        if ro.element(ctx, mcmod.gauge_getzler(ctx, b, xi).value) != xe - db:
            ok = False
            details.append("%s: first-order form gauge" % name)
        action = mcmod.ad_b_action(ctx, b)
        if ro.element(ctx, mcmod.gauge_h(ctx, action, xi).value) != xe - ro.element(ctx, mcmod.action_curvature(ctx, action)):
            ok = False
            details.append("%s: first-order derivation gauge" % name)
        # the valuation assertions run inside every recursion step at N=4
        ctx4 = mcmod.MCContext(l3, order=4)
        rng4 = random.Random(9)
        xi4 = mcmod.random_mc_element(ctx4, rng4)
        b4 = mcmod.random_gauge_parameter(ctx4, rng4)
        try:
            mcmod.gauge_getzler(ctx4, b4, xi4)
            mcmod.gauge_h(ctx4, mcmod.ad_b_action(ctx4, b4), xi4)
        except AssertionError as exc:
            ok = False
            details.append("%s: valuation lemma violated (%s)" % (name, exc))
    report(8, "first-order closed forms and valuation bound on all recursions", ok, "; ".join(details))


def test_criterion_9_cohomology():
    ok = True
    details = []
    expected = {"sl2": {0: 0, 1: 0}, "aff1": {0: 0, 1: 0}, "heisenberg": {0: 2, 1: 2}}
    models = {}
    for name, dims in expected.items():
        model = da.CohomologyModel(get_l3(name))
        models[name] = model
        if model.dims != dims:
            ok = False
            details.append("%s dims %s" % (name, model.dims))
    heis = get_l3("heisenberg")
    model = models["heisenberg"]
    preserving = [d for d in da.derivations(heis.pair.algebra) if da.kappa(heis, d).is_zero()]
    if not preserving:
        ok = False
        details.append("no curvature-free derivations on the nilpotent pair")
    for delta in preserving:
        da.induced_action(heis, model, delta)  # well-defined on classes
        for k1 in model.degrees:
            for i1 in range(model.dims[k1]):
                for k2 in model.degrees:
                    if k1 + k2 not in model.dims:
                        continue
                    for i2 in range(model.dims[k2]):
                        x1 = model.reps[k1][i1]
                        x2 = model.reps[k2][i2]
                        lhs = model.class_coords(da.act1(heis, delta, heis.bracket2(x1, x2)), k1 + k2)
                        rhs1 = model.class_coords(heis.bracket2(da.act1(heis, delta, x1), x2), k1 + k2)
                        rhs2 = model.class_coords(heis.bracket2(x1, da.act1(heis, delta, x2)), k1 + k2)
                        if lhs != [a + b for a, b in zip(rhs1, rhs2)]:
                            ok = False
                            details.append("derivation rule fails at (%d,%d,%d,%d)" % (k1, i1, k2, i2))
    report(9, "cohomology dimensions and induced derivation action", ok, "; ".join(details))
