"""The support-driven shuffle-insertion kernel against word-by-subset evaluation.

Every comparison is exact and covers the order of the reported failures and
their truncation at ``limit``, not just whether a check passes.
"""

import copy
import random
from fractions import Fraction

import pytest

import shuffle_oracle as oracle
from helpers import random_table
from l3pair import catalog
from l3pair import deraction as da
from l3pair.graded import GradedBasis, GradedElement
from l3pair.linfty import (
    Coderivation, LInfinityStructure, brackets_to_codifferential, combine, commutator, compose, jacobi_sweep
)

LIMITS = (1, 5, 16, 10**6)


@pytest.mark.parametrize("name", catalog.EXAMPLE_NAMES)
def test_catalog_pair_sweeps_match_oracle(name):
    l3 = catalog.get_l3(name)
    st = l3.structure()
    assert jacobi_sweep(st, range(1, 6)) == oracle.jacobi_sweep_by_words(st, range(1, 6))
    Q = brackets_to_codifferential(st)
    assert compose(Q, Q, 6) == oracle.compose_by_words(Q, Q, 6)
    action = da.ActionMaps(l3, da.derivations(l3.pair.algebra))
    assert da.check_action_axioms(action) == oracle.check_action_axioms_by_words(action)


def _mutate(rng, action):
    """A copy of the action with one random mu1/mu2 entry rescaled, changed, dropped or added."""
    out = copy.copy(action)
    out.maps = [{n: t.copy() for n, t in maps.items()} for maps in action.maps]
    space = action.l3.basis
    r = rng.randrange(action.dim())
    table = rng.choice([out.maps[r][1], out.maps[r][2]])
    keys = sorted(table.values)
    kind = rng.choice(["scale", "extra", "drop", "new"] if keys else ["new"])
    if kind == "new":
        arity_keys = sorted({key for maps in out.maps for key in maps[table.arity].values})
        if not arity_keys:
            return out
        key = rng.choice(arity_keys)
        out_deg = sum(space.degree(nm) for nm in key) + table.map_degree
        targets = [nm for nm in space.names if space.degree(nm) == out_deg]
        if targets:
            table.values[key] = GradedElement(space, {rng.choice(targets): Fraction(rng.choice([-2, 1, 3]))})
        return out
    key = rng.choice(keys)
    val = table.values[key]
    if kind == "scale":
        table.values[key] = val.scale(Fraction(rng.choice([-1, 2, -3]), rng.choice([1, 2])))
    elif kind == "drop":
        del table.values[key]
    else:
        deg = space.degree(next(iter(val.coords)))
        extra = rng.choice([nm for nm in space.names if space.degree(nm) == deg])
        table.values[key] = val + space.unit(extra)
    return out


@pytest.mark.parametrize("name,trials", [("sl2", 8), ("heisenberg", 8), ("aff1", 6), ("sl3-cartan", 3)])
def test_mutated_action_tables_match_oracle(name, trials):
    rng = random.Random("mutate-" + name)
    l3 = catalog.get_l3(name)
    base = da.ActionMaps(l3, da.derivations(l3.pair.algebra))
    limits = LIMITS if name != "sl3-cartan" else (3, 16)
    for _ in range(trials):
        action = _mutate(rng, base)
        for limit in limits:
            got = da.check_action_axioms(action, limit=limit)
            assert got == oracle.check_action_axioms_by_words(action, limit=limit), limit
            assert len(got) <= limit


def test_random_brackets_with_repeated_odd_letters_match_oracle():
    # x and y are odd, so wedge words repeat them: binomial multiplicities
    rng = random.Random(5)
    V = GradedBasis([("a", 0), ("x", 1), ("y", 1), ("c", 2)])
    repeated = 0
    for _ in range(10):
        brackets = {k: random_table(rng, V, k, "skew", 2 - k, density=0.4) for k in (1, 2, 3)}
        L = LInfinityStructure(V, {k: t for k, t in brackets.items() if not t.is_zero()})
        for limit in LIMITS:
            got = jacobi_sweep(L, range(1, 6), limit=limit)
            assert got == oracle.jacobi_sweep_by_words(L, range(1, 6), limit=limit)
        repeated += sum(len(set(key)) < len(key) for _, key, _ in got)
    assert repeated


def test_random_coderivation_pairs_with_repeated_even_letters_match_oracle():
    # b, c and e are even after the shift, so symmetric words repeat them
    rng = random.Random(23)
    S = GradedBasis([("a", 0), ("b", 1), ("c", 1), ("d", 2), ("e", 3)]).shifted(1)

    def coderivation(degree, with_arity0):
        comps = {k: random_table(rng, S, k, "symmetric", degree, density=0.35) for k in (1, 2, 3)}
        if with_arity0:
            value0 = GradedElement(S, {nm: Fraction(rng.randint(-2, 2)) for nm in S.names if S.degree(nm) == degree})
            comps[0] = oracle.arity0_table(S, degree, value0)
        return Coderivation(S, degree, comps)

    repeated = 0
    for trial in range(12):
        F = coderivation(rng.choice([0, 1]), False)
        G = coderivation(rng.choice([0, 1]), trial % 3 == 0)
        FG = compose(F, G, 5)
        assert FG == oracle.compose_by_words(F, G, 5), trial
        repeated += sum(len(set(key)) < len(key) for t in FG.components.values() for key in t.values)
        for nm in S.names:
            assert oracle.contract(S.unit(nm), F) == oracle.contract_by_words(S.unit(nm), F), (trial, nm)
    assert repeated


# --- integer arithmetic inside the kernel, Fractions at its boundary ------------

FACTORS = [Fraction(1, 3), Fraction(-2, 5), Fraction(4, 15), 2, -1]


def _fractional(rng, table):
    """The table with every coordinate multiplied by a third, a fifth or an integer."""
    out = table.copy()
    for key, val in table.values.items():
        out.values[key] = GradedElement(table.space, {nm: c * rng.choice(FACTORS) for nm, c in val.coords.items()})
    return out


def _fraction_coords(elements) -> bool:
    return all(type(c) is Fraction for val in elements for c in val.coords.values())


def _tables_have_fraction_coords(D: Coderivation) -> bool:
    return _fraction_coords(val for t in D.components.values() for val in t.values.values())


@pytest.mark.parametrize("fractional", [False, True], ids=["integral", "thirds-and-fifths"])
def test_compose_and_commutator_on_rational_tables_match_oracle(fractional):
    rng = random.Random("rational-compose-%s" % fractional)
    S = GradedBasis([("a", 0), ("b", 1), ("c", 1), ("d", 2), ("e", 3)]).shifted(1)

    def coderivation(degree, with_arity0):
        comps = {k: random_table(rng, S, k, "symmetric", degree, density=0.35) for k in (1, 2, 3)}
        if fractional:
            comps = {k: _fractional(rng, t) for k, t in comps.items()}
        if with_arity0:
            coords = {nm: Fraction(rng.randint(-2, 2), rng.choice([1, 3, 5])) for nm in S.names if S.degree(nm) == degree}
            value0 = GradedElement(S, coords)
            comps[0] = oracle.arity0_table(S, degree, value0)
        return Coderivation(S, degree, comps)

    for trial in range(6):
        F = coderivation(rng.choice([0, 1]), False)
        G = coderivation(rng.choice([0, 1]), trial % 2 == 0)
        FG = compose(F, G, 4)
        assert FG == oracle.compose_by_words(F, G, 4), trial
        sign = -1 if (F.degree * G.degree) % 2 else 1
        expected = combine([(1, oracle.compose_by_words(F, G, 4)), (-sign, oracle.compose_by_words(G, F, 4))])
        FG_GF = commutator(F, G, 4)
        assert FG_GF == expected, trial
        assert not FG.is_zero() and _tables_have_fraction_coords(FG) and _tables_have_fraction_coords(FG_GF)


@pytest.mark.parametrize("fractional", [False, True], ids=["integral", "thirds-and-fifths"])
def test_jacobi_sweep_on_rational_brackets_matches_oracle(fractional):
    rng = random.Random("rational-jacobi-%s" % fractional)
    V = GradedBasis([("a", 0), ("x", 1), ("y", 1), ("c", 2)])
    found = 0
    for _ in range(6):
        brackets = {k: random_table(rng, V, k, "skew", 2 - k, density=0.4) for k in (1, 2, 3)}
        if fractional:
            brackets = {k: _fractional(rng, t) for k, t in brackets.items()}
        L = LInfinityStructure(V, {k: t for k, t in brackets.items() if not t.is_zero()})
        got = jacobi_sweep(L, range(1, 6), limit=10**6)
        assert got == oracle.jacobi_sweep_by_words(L, range(1, 6), limit=10**6)
        assert _fraction_coords(defect for _, _, defect in got)
        found += len(got)
    assert found


@pytest.mark.parametrize("name", ["sl2", "heisenberg"])
def test_action_sweep_on_a_rational_derivation_basis_matches_oracle(name):
    # a basis of thirds and fifths of derivations: non-integral action tables
    # and non-integral commutator coordinates in the commutator rule
    l3 = catalog.get_l3(name)
    ders = da.derivations(l3.pair.algebra)
    scaled = [d.scale(FACTORS[r % len(FACTORS)]) for r, d in enumerate(ders)]
    action = da.ActionMaps(l3, scaled)
    assert any(c.denominator > 1 for coords in action.commutator_coords.values() for c in coords)
    assert da.check_action_axioms(action) == [] == oracle.check_action_axioms_by_words(action)
    rng = random.Random("rational-action-" + name)
    for _ in range(4):
        broken = _mutate(rng, action)
        got = da.check_action_axioms(broken, limit=10**6)
        assert got and got == oracle.check_action_axioms_by_words(broken, limit=10**6)
        assert _fraction_coords(rec["defect"] for rec in got)
