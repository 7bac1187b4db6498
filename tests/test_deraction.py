import random
from fractions import Fraction
from itertools import combinations

import pytest

from l3pair import catalog, linalg
from l3pair import deraction as da
from l3pair.liepair import L3Pair
from l3pair.linfty import Coderivation, compose
from l3pair.vectors import GradedElement

import structure_oracle as so
import gauge_oracle as go
import linalg_oracle as dense
from shuffle_oracle import combine, commutator
from helpers import RESCALED, drawn_pairs, get_l3, get_pair, report_pair, scale_pair, theta_gamma

SMALL_PAIRS = ("sl2", "heisenberg", "aff1", "abelian:3")
# the algebras the matrix arithmetic of Derivation is checked on: the catalog, sl3 rescaled (constants such
# as 2/3), sp4 and the drawn algebras with their re-splittings
MATRIX_ALGEBRAS = {
    **{name: report_pair(name).algebra for name in (*catalog.EXAMPLE_NAMES, RESCALED)},
    "sp4": scale_pair("sp4-cartan").algebra,
    **{label: pair.algebra for label, pair in drawn_pairs().items()},
}


def get_action(name):
    l3 = get_l3(name)
    ders = da.derivations(l3.pair.algebra)
    return l3, da.ActionMaps(l3, ders)


def test_derivation_dimensions():
    assert len(da.derivations(get_pair("sl2").algebra)) == 3
    assert len(da.derivations(get_pair("aff1").algebra)) == 2
    assert len(da.derivations(get_pair("abelian:3").algebra)) == 9
    assert len(da.derivations(get_pair("heisenberg").algebra)) == 6
    assert len(da.derivations(get_pair("sl3-cartan").algebra)) == 8


def test_aff1_derivation_shape():
    alg = get_pair("aff1").algebra
    for d in da.derivations(alg):
        assert set(d.images["a"]) <= {"b"}
        assert set(d.images["b"]) <= {"b"}


def test_derivations_closed_under_commutator():
    for name in ("sl2", "aff1", "heisenberg"):
        alg = get_pair(name).algebra
        ders = da.derivations(alg)
        for i, d1 in enumerate(ders):
            for d2 in ders[i:]:
                comm = d1.commutator(d2)
                assert go.is_derivation(comm)
                assert go.der_coords(ders, comm) is not None


def test_ad_is_homomorphism_into_derivations():
    alg = get_pair("sl2").algebra
    ders = da.derivations(alg)
    for u in alg.names:
        assert go.der_coords(ders, da.ad(alg, alg.unit(u))) is not None
        for v in alg.names:
            lhs = da.ad(alg, alg.unit(u)).commutator(da.ad(alg, alg.unit(v)))
            rhs = da.ad(alg, so.lie_bracket(alg, alg.unit(u), alg.unit(v)))
            assert lhs == rhs


def test_der_sl2_equals_inner():
    alg = get_pair("sl2").algebra
    ders = da.derivations(alg)
    inner = [da.ad(alg, alg.unit(nm)).to_vector() for nm in alg.names]
    from l3pair import linalg

    for d in ders:
        assert linalg.in_span(inner, d.to_vector()) is not None


@pytest.mark.parametrize("label", MATRIX_ALGEBRAS)
def test_the_commutator_is_both_composites_on_elements(label):
    """The matrix product of ``Derivation.commutator`` is delta(eps(x)) - eps(delta(x)) on every basis name x,
    with both composites evaluated on elements by the oracle, for every pair of basis derivations."""
    alg = MATRIX_ALGEBRAS[label]
    ders = da.derivations(alg)
    for d, e in combinations(ders, 2):
        comm = d.commutator(e)
        for x in alg.names:
            expect = so.apply(d, so.apply(e, alg.unit(x))) - so.apply(e, so.apply(d, alg.unit(x)))
            assert comm.images[x] == expect.coords, (label, x)


@pytest.mark.parametrize("label", MATRIX_ALGEBRAS)
def test_ad_is_the_bracket_of_l_on_rational_elements(label):
    """Row y of ``ad(x)`` is [x, y], bracketed on elements by the oracle, for random rational x."""
    alg = MATRIX_ALGEBRAS[label]
    rng = random.Random(label)
    for _ in range(4):
        x = GradedElement(alg.basis, {nm: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for nm in alg.names})
        delta = da.ad(alg, x)
        for y in alg.names:
            assert delta.images[y] == so.lie_bracket(alg, x, alg.unit(y)).coords, (label, y)


@pytest.mark.parametrize("label", MATRIX_ALGEBRAS)
def test_every_basis_derivation_satisfies_the_leibniz_rule_on_elements(label):
    assert not any(go.derivation_defects(d) for d in da.derivations(MATRIX_ALGEBRAS[label])), label


def test_candidate_derivation_validation():
    alg = get_pair("sl2").algebra
    bogus = da.Derivation(alg, {"h": {"e": 1}})
    assert not go.is_derivation(bogus)
    assert go.is_derivation(da.ad(alg, alg.unit("e")))
    combo = go.derivation_sum(alg, [(1, da.ad(alg, alg.unit("e"))), (Fraction(1, 3), da.ad(alg, alg.unit("f")))])
    assert go.is_derivation(combo)
    assert combo == da.ad(alg, alg.unit("e") + alg.unit("f").scale(Fraction(1, 3)))


def test_kappa_examples():
    l3 = get_l3("sl2")
    alg = l3.pair.algebra
    assert da.kappa(l3, da.ad(alg, alg.unit("e"))) == l3.basis.unit("h|e").scale(2)
    assert da.kappa(l3, da.ad(alg, alg.unit("h"))).is_zero()
    aff = get_l3("aff1")
    delta = da.Derivation(aff.pair.algebra, {"a": {"b": 1}})
    assert da.kappa(aff, delta) == aff.basis.unit("a|b").scale(-1)


def test_kappa_chevalley_values_sl3():
    # the curvature of a raising inner derivation reads off a Cartan column
    l3 = get_l3("sl3-cartan")
    alg = l3.pair.algebra
    got = da.kappa(l3, da.ad(alg, alg.unit("e1")))
    assert got == l3.basis.unit("h1|e1").scale(2) + l3.basis.unit("h2|e1").scale(-1)
    got_f = da.kappa(l3, da.ad(alg, alg.unit("f1")))
    assert got_f == l3.basis.unit("h1|f1").scale(-2) + l3.basis.unit("h2|f1")
    for h in ("h1", "h2"):
        assert da.kappa(l3, da.ad(alg, alg.unit(h))).is_zero()


def test_act1_examples():
    l3 = get_l3("sl2")
    alg = l3.pair.algebra
    assert da.act1(l3, da.ad(alg, alg.unit("h")), l3.basis.unit("e")) == l3.basis.unit("e").scale(2)
    assert da.act1(l3, da.ad(alg, alg.unit("e")), l3.basis.unit("f")).is_zero()
    heis = get_l3("heisenberg")
    for d in da.derivations(heis.pair.algebra):
        got = da.act1(heis, d, heis.basis.unit("x"))
        expect = so.from_b_element(heis, so.pr_b(heis.pair, so.apply(d, heis.pair.algebra.unit("x"))))
        assert got == expect


def test_act1_chevalley_values_sl3():
    l3 = get_l3("sl3-cartan")
    alg = l3.pair.algebra
    # diagonal action by Cartan columns
    data = {("h1", "e1"): 2, ("h1", "e2"): -1, ("h2", "e3"): 1, ("h1", "f2"): 1}
    for (h, x), c in data.items():
        got = da.act1(l3, da.ad(alg, alg.unit(h)), l3.basis.unit(x))
        assert got == l3.basis.unit(x).scale(c)
    # raising action moves between root spaces with integer constants
    assert da.act1(l3, da.ad(alg, alg.unit("e1")), l3.basis.unit("e2")) == l3.basis.unit("e3")
    assert da.act1(l3, da.ad(alg, alg.unit("e1")), l3.basis.unit("f1")).is_zero()
    assert da.act1(l3, da.ad(alg, alg.unit("e3")), l3.basis.unit("f3")).is_zero()


def test_act2_examples():
    l3 = get_l3("sl2")
    alg = l3.pair.algebra
    ad_e = da.ad(alg, alg.unit("e"))
    assert go.act2(l3, ad_e, l3.basis.unit("h|f"), l3.basis.unit("f")) == l3.basis.unit("f")
    for d in da.derivations(alg):
        for b1 in ("e", "f"):
            for b2 in ("e", "f"):
                assert go.act2(l3, d, l3.basis.unit(b1), l3.basis.unit(b2)).is_zero()
    # frozen value of the two-shuffle branch
    assert go.act2(l3, ad_e, l3.basis.unit("h|e"), l3.basis.unit("h|f")) == l3.basis.unit("h|e")
    ad_h = da.ad(alg, alg.unit("h"))
    assert go.act2(l3, ad_h, l3.basis.unit("h|e"), l3.basis.unit("h|f")).is_zero()


def test_act2_graded_skew():
    rng = random.Random(3)
    l3 = get_l3("sl3-cartan")
    alg = l3.pair.algebra
    ders = [da.ad(alg, alg.unit(nm)) for nm in ("e1", "f2", "h1")]
    names = l3.basis.names
    for _ in range(30):
        d = rng.choice(ders)
        x, y = rng.choice(names), rng.choice(names)
        sx = l3.basis.degree(x)
        sy = l3.basis.degree(y)
        lhs = go.act2(l3, d, l3.basis.unit(x), l3.basis.unit(y))
        rhs = go.act2(l3, d, l3.basis.unit(y), l3.basis.unit(x)).scale(-((-1) ** (sx * sy)))
        assert lhs == rhs


def test_varrho_examples():
    l3 = get_l3("sl2")
    alg = l3.pair.algebra
    assert so.varrho1(l3, da.ad(alg, alg.unit("h")), so.scalar_basis(l3).unit("h")).is_zero()
    got = so.varrho2(l3, da.ad(alg, alg.unit("e")), l3.basis.unit("f"), so.scalar_basis(l3).unit("h"))
    assert got == so.scalar_basis(l3).unit("1").scale(-1)


def test_varrho2_semisimple_contraction_rule():
    # the pairing against the opposite root contracts by the coroot:
    # varrho_2(x_a, w (x) x_{-a}) = (-1)^(|w|+1) w ^ (e_a -| .)
    l3 = get_l3("sl3-cartan")
    alg = l3.pair.algebra
    cases = [("e1", "f1", {"h1": 1}), ("e2", "f2", {"h2": 1}), ("e3", "f3", {"h1": 1, "h2": 1})]
    for x_sym, f_sym, coroot in cases:
        delta = da.ad(alg, alg.unit(x_sym))
        e_alpha = GradedElement(alg.basis, {k: Fraction(v) for k, v in coroot.items()})
        for w_name in so.scalar_basis(l3).names:
            w = so.scalar_basis(l3).unit(w_name)
            wdeg = so.scalar_basis(l3).degree(w_name)
            X = so.module_product(l3, w, l3.basis.unit(f_sym))
            for wp_name in so.scalar_basis(l3).names:
                wp = so.scalar_basis(l3).unit(wp_name)
                lhs = so.varrho2(l3, delta, X, wp)
                rhs = so.wedge(l3, w, so.interior(l3, e_alpha, wp)).scale(-1 if wdeg % 2 == 0 else 1)
                assert lhs == rhs, (x_sym, w_name, wp_name)
    # and the non-paired cases vanish
    for x_sym, y_sym in [("e1", "f2"), ("e1", "e2"), ("h1", "e1")]:
        delta = da.ad(alg, alg.unit(x_sym))
        for wp_name in so.scalar_basis(l3).names:
            assert so.varrho2(l3, delta, l3.basis.unit(y_sym), so.scalar_basis(l3).unit(wp_name)).is_zero()


def test_action_module_properties_leibniz():
    # scalar linearity of kappa, module Leibniz rules of both action maps
    rng = random.Random(7)
    for name in ("sl2", "aff1", "heisenberg"):
        l3 = get_l3(name)
        ders = da.derivations(l3.pair.algebra)
        for d in ders:
            c = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            assert da.kappa(l3, go.derivation_sum(l3.pair.algebra, [(c, d)])) == da.kappa(l3, d).scale(c)
        for d in ders:
            for w_nm in so.scalar_basis(l3).names:
                w = so.scalar_basis(l3).unit(w_nm)
                wdeg = so.scalar_basis(l3).degree(w_nm)
                for x_nm in l3.basis.names:
                    x = l3.basis.unit(x_nm)
                    lhs = da.act1(l3, d, so.module_product(l3, w, x))
                    rhs = so.module_product(l3, so.varrho1(l3, d, w), x) + so.module_product(l3, w, da.act1(l3, d, x))
                    assert lhs == rhs
                    for y_nm in l3.basis.names:
                        y = l3.basis.unit(y_nm)
                        xdeg = l3.basis.degree(x_nm)
                        lhs2 = go.act2(l3, d, x, so.module_product(l3, w, y))
                        sgn = -1 if (wdeg * (1 + xdeg)) % 2 else 1
                        rhs2 = so.module_product(l3, so.varrho2(l3, d, x, w), y) + so.module_product(
                            l3, w, go.act2(l3, d, x, y)
                        ).scale(sgn)
                        assert lhs2 == rhs2, (name, x_nm, w_nm, y_nm)


def test_action_axioms_clean_small_pairs():
    for name in SMALL_PAIRS:
        l3, action = get_action(name)
        assert da.check_action_axioms(theta_gamma(action)) == [], name


def test_action_axioms_mutation_detected():
    l3, action = get_action("sl2")
    # flip one sign in the degree-0 action of one derivation
    target = None
    for r in range(action.dim()):
        for key, val in action.maps[r][1].values.items():
            target = (r, key, val)
            break
        if target:
            break
    r, key, val = target
    action.maps[r][1].values[key] = -val
    tg = theta_gamma(action)
    defects = da.check_action_axioms(tg)
    assert defects
    assert any(d["identity"].startswith("action-bracket-n1") for d in defects)
    tg_defects = da.check_theta_gamma(tg)
    assert tg_defects  # the two checkers agree that the action is broken


def test_theta_gamma_clean_small_pairs():
    for name in SMALL_PAIRS:
        l3, action = get_action(name)
        assert da.check_theta_gamma(theta_gamma(action)) == [], name


def test_strict_zero_action_passes():
    l3, action = get_action("sl2")
    tg = theta_gamma(action)
    tg.psis = [Coderivation(tg.shifted, 0, {}) for _ in tg.psis]
    # zero maps satisfy the two structural equations trivially, but the
    # bracket equations now see the nonabelian derivation algebra
    defects = da.check_theta_gamma(tg)
    assert all(d["identity"] in ("gamma-bracket", "theta-bracket") for d in defects)
    ab_l3, ab_action = get_action("abelian:3")
    tg0 = theta_gamma(ab_action)
    tg0.psis = [Coderivation(tg0.shifted, 0, {}) for _ in tg0.psis]
    # abelian bracket structure and commuting... the derivation algebra of the
    # abelian pair is gl(3), so restrict to the zero derivation alone
    tg0.psis = tg0.psis[:0]
    tg0.action.ders = []
    tg0.action.maps = []
    tg0.action._der_vectors = []
    assert da.check_theta_gamma(tg0) == []


def test_strict_action_chain_violation_detected():
    l3, action = get_action("sl2")
    tg = theta_gamma(action)
    # tamper one theta component so the chain-map equation breaks
    t1 = next(
        psi.component(1) for psi in tg.psis if psi.component(1) is not None and not psi.component(1).is_zero()
    )
    key, val = next(iter(t1.values.items()))
    t1.values[key] = val.scale(2)
    defects = da.check_theta_gamma(tg)
    assert any(d["identity"] == "theta-chain" for d in defects)


def test_extend_sum_small_pairs():
    for name in SMALL_PAIRS:
        l3, action = get_action(name)
        ext = da.ExtendedStructure(theta_gamma(action))
        E = go.materialized(ext)
        assert compose(E, E, 6).is_zero(), name
        assert ext.violations() == [], name
        restr = go.restricted_to_forms(ext)
        Q = ext.tg.Q
        for k, table in Q.components.items():
            sub = restr.component(k)
            assert sub is not None and set(sub.values) == set(table.values)
            for key, val in table.values.items():
                assert dict(sub.values[key].coords) == dict(val.coords)


def test_extend_sum_trivial_derivation_space():
    l3 = get_l3("sl2")
    action = da.ActionMaps(l3, [])
    ext = da.ExtendedStructure(theta_gamma(action))
    Q, extended = ext.tg.Q, go.materialized(ext)
    assert set(extended.components) == set(Q.components)
    for k, table in Q.components.items():
        assert set(extended.components[k].values) == set(table.values)


def test_extend_sum_zero_structure():
    ab = get_l3("abelian:3")
    ext = da.ExtendedStructure(theta_gamma(da.ActionMaps(ab, [])))
    assert go.materialized(ext).is_zero()


def test_cohomology_dimensions():
    assert da.CohomologyModel(get_l3("sl2")).dims == {0: 0, 1: 0}
    assert da.CohomologyModel(get_l3("aff1")).dims == {0: 0, 1: 0}
    assert da.CohomologyModel(get_l3("heisenberg")).dims == {0: 2, 1: 2}


def _greedy_cohomology(l3):
    """{degree: (boundary basis, representatives)} as coordinate lists, each degree's boundaries
    picked, then extended by kernel vectors, one rank per candidate."""
    space = l3.basis
    degrees = sorted({space.degree(nm) for nm in space.names})
    matrices = {k: da.differential_matrix(l3, k) for k in degrees}
    out = {}
    for k in degrees:
        src, _tgt, rows = matrices[k]
        kernel = linalg.nullspace(rows, len(src)) if src else []
        into = matrices[k - 1][2] if k - 1 in matrices else []
        boundaries = [list(col) for col in zip(*into) if any(col)]
        basis = [boundaries[i] for i in dense.independent_subset(boundaries)]
        out[k] = basis, [kernel[i] for i in dense.extend_basis(basis, kernel)]
    return out


COHOMOLOGY_PAIRS = [(name, lambda name=name: get_l3(name)) for name in catalog.EXAMPLE_NAMES]
COHOMOLOGY_PAIRS += [(name, lambda name=name: L3Pair(scale_pair(name))) for name in ("sp4-borel", "sl4-cartan")]


@pytest.mark.parametrize("name, make", COHOMOLOGY_PAIRS, ids=[name for name, _ in COHOMOLOGY_PAIRS])
def test_cohomology_picks_match_the_greedy_loop(name, make):
    """One pivot pass over the boundaries and the kernel picks what the per-candidate rank loop picked."""
    l3 = make()
    model = da.CohomologyModel(l3)
    for k, (basis, reps) in _greedy_cohomology(l3).items():
        src = model.names_by_degree[k]
        assert model.boundaries[k] == basis
        assert [[r.coords.get(nm, 0) for nm in src] for r in model.reps[k]] == reps
        assert model.dims[k] == len(reps)


def test_cohomology_model_makes_two_eliminations_per_degree(monkeypatch):
    """The kernel, then one pivot pass: 14 eliminations on sp4-Borel's seven degrees (367 with
    one rank per candidate)."""
    l3 = L3Pair(scale_pair("sp4-borel"))  # the helper solves for sp4's structure constants
    calls = []
    reduce = linalg._reduce
    monkeypatch.setattr(linalg, "_reduce", lambda rows: calls.append(1) or reduce(rows))
    model = da.CohomologyModel(l3)
    assert len(model.degrees) == 7 and len(calls) <= 14


def test_cohomology_class_coords_well_defined():
    rng = random.Random(13)
    heis = get_l3("heisenberg")
    model = da.CohomologyModel(heis)
    st = heis.structure()
    d = st.bracket(1)
    for k in model.degrees:
        prev = model.names_by_degree.get(k - 1, ())
        for i, rep in enumerate(model.reps[k]):
            base = model.class_coords(rep, k)
            assert [c for c in base] == [Fraction(int(j == i)) for j in range(model.dims[k])]
            if prev and d is not None:
                noise = heis.basis.zero()
                for nm in prev:
                    noise = noise + d.eval_basis((nm,)).scale(Fraction(rng.randint(-3, 3)))
                assert model.class_coords(rep + noise, k) == base


def test_induced_action_is_derivation_of_induced_bracket():
    heis = get_l3("heisenberg")
    model = da.CohomologyModel(heis)
    ders = da.derivations(heis.pair.algebra)
    preserving = [d for d in ders if da.kappa(heis, d).is_zero()]
    assert preserving  # the center is preserved by every derivation here
    for delta in preserving:
        ops = da.induced_action(heis, model, delta)
        for k1 in model.degrees:
            for i1 in range(model.dims[k1]):
                for k2 in model.degrees:
                    if k1 + k2 not in model.dims:
                        continue
                    for i2 in range(model.dims[k2]):
                        acted = da.act1(heis, delta, heis.bracket2(model.reps[k1][i1], model.reps[k2][i2]))
                        lhs = model.class_coords(acted, k1 + k2)
                        term1 = model.class_coords(
                            heis.bracket2(da.act1(heis, delta, model.reps[k1][i1]), model.reps[k2][i2]),
                            k1 + k2,
                        )
                        term2 = model.class_coords(
                            heis.bracket2(model.reps[k1][i1], da.act1(heis, delta, model.reps[k2][i2])),
                            k1 + k2,
                        )
                        assert lhs == [a + b for a, b in zip(term1, term2)]


def test_induced_action_rejects_nonpreserving():
    l3 = get_l3("sl2")
    model = da.CohomologyModel(l3)
    with pytest.raises(ValueError):
        da.induced_action(l3, model, da.ad(l3.pair.algebra, l3.pair.algebra.unit("e")))


def test_full_coalgebra_homomorphism():
    # the defining property of the transported action in one equation each:
    # the combined coderivation gamma^# + theta commutes with the
    # codifferential, and the assignment preserves commutators
    for name in ("sl2", "aff1", "heisenberg"):
        l3, action = get_action(name)
        tg = theta_gamma(action)
        Q = tg.Q
        psis = tg.psis
        for psi in psis:
            assert commutator(Q, psi, max_arity=5).is_zero()
        for r in range(action.dim()):
            for s in range(r + 1, action.dim()):
                coords = go.der_coords(action.ders, action.ders[r].commutator(action.ders[s]))
                lhs = Coderivation(tg.shifted, 0, {})
                for u, c in enumerate(coords):
                    if c:
                        lhs = combine([(1, lhs), (c, psis[u])])
                rhs = commutator(psis[r], psis[s], max_arity=4)
                assert combine([(1, lhs), (-1, rhs)]).is_zero(), (name, r, s)


def test_induced_bracket_well_defined_with_real_boundaries():
    # the lowering-span pair has both nonzero classes and nonzero boundaries,
    # so representative independence is a real statement there
    rng = random.Random(3)
    l3 = get_l3("sl3-borel-complement")
    model = da.CohomologyModel(l3)
    assert model.dims == {0: 2, 1: 5, 2: 4, 3: 1}
    st = l3.structure()
    d = st.bracket(1)

    def boundary(k):
        prev = model.names_by_degree.get(k - 1, ())
        out = l3.basis.zero()
        for nm in prev:
            out = out + d.eval_basis((nm,)).scale(Fraction(rng.randint(-2, 2)))
        return out

    pairs = [((0, 0), (1, 0)), ((0, 1), (1, 2)), ((1, 0), (1, 1)), ((0, 0), (2, 1))]
    for (k1, i1), (k2, i2) in pairs:
        base = model.induced_bracket(k1, i1, k2, i2)
        x = model.reps[k1][i1] + boundary(k1)
        y = model.reps[k2][i2] + boundary(k2)
        perturbed = model.class_coords(l3.bracket2(x, y), k1 + k2)
        assert perturbed == base, ((k1, i1), (k2, i2))


def test_induced_action_well_defined_and_derivation_on_nonzero_bracket():
    rng = random.Random(5)
    l3 = get_l3("sl3-borel-complement")
    model = da.CohomologyModel(l3)
    ders = da.derivations(l3.pair.algebra)
    preserving = [d for d in ders if da.kappa(l3, d).is_zero()]
    assert len(preserving) == 5
    st = l3.structure()
    d = st.bracket(1)
    delta = preserving[0]
    ops = da.induced_action(l3, model, delta)
    for k in model.degrees:
        prev = model.names_by_degree.get(k - 1, ())
        for i, rep in enumerate(model.reps[k]):
            noise = l3.basis.zero()
            for nm in prev:
                noise = noise + d.eval_basis((nm,)).scale(Fraction(rng.randint(-2, 2)))
            perturbed = model.class_coords(da.act1(l3, delta, rep + noise), k)
            assert perturbed == ops[k][i]
    # derivation rule on a class pair with nonzero induced bracket
    for delta in preserving[:3]:
        for (k1, i1), (k2, i2) in [((0, 0), (1, 0)), ((0, 1), (1, 1)), ((1, 0), (1, 2))]:
            z = l3.bracket2(model.reps[k1][i1], model.reps[k2][i2])
            lhs = model.class_coords(da.act1(l3, delta, z), k1 + k2)
            r1 = model.class_coords(
                l3.bracket2(da.act1(l3, delta, model.reps[k1][i1]), model.reps[k2][i2]), k1 + k2
            )
            r2 = model.class_coords(
                l3.bracket2(model.reps[k1][i1], da.act1(l3, delta, model.reps[k2][i2])), k1 + k2
            )
            assert lhs == [a + b for a, b in zip(r1, r2)]


def test_curvature_kernel_is_a_subalgebra_and_acts_strictly():
    # derivations with vanishing curvature close under commutator, and their
    # transported coderivations form a plain homomorphism commuting with the
    # codifferential (no curvature corrections)
    for name in ("sl3-borel-complement", "heisenberg", "sl2"):
        l3 = get_l3(name)
        ders = da.derivations(l3.pair.algebra)
        preserving = [d for d in ders if da.kappa(l3, d).is_zero()]
        if not preserving:
            continue
        for i, d1 in enumerate(preserving):
            for d2 in preserving[i:]:
                assert da.kappa(l3, d1.commutator(d2)).is_zero(), name
        action = da.ActionMaps(l3, preserving)
        tg = theta_gamma(action)
        assert all(0 not in psi.components for psi in tg.psis)
        thetas = [psi.truncate() for psi in tg.psis]
        Q = tg.Q
        for th in thetas:
            assert commutator(Q, th, max_arity=4).is_zero()
        for r in range(len(preserving)):
            for s in range(r + 1, len(preserving)):
                coords = go.der_coords(action.ders, action.ders[r].commutator(action.ders[s]))
                assert coords is not None
                lhs = Coderivation(tg.shifted, 0, {})
                for u, c in enumerate(coords):
                    if c:
                        lhs = combine([(1, lhs), (c, thetas[u])])
                rhs = commutator(thetas[r], thetas[s], max_arity=3)
                assert combine([(1, lhs), (-1, rhs)]).is_zero(), (name, r, s)


def test_combined_coderivation_truncates_to_theta():
    l3, action = get_action("sl2")
    tg = theta_gamma(action)
    for psi in tg.psis:
        theta = psi.truncate()
        assert theta == Coderivation(tg.shifted, 0, {n: psi.component(n) for n in (1, 2)})
        assert combine([(1, theta), (1, Coderivation(tg.shifted, 0, {0: psi.component(0)}))]) == psi
