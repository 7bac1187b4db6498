"""The identities on Lie pairs drawn at random, beyond the catalog.

Algebras: upper-triangular and strictly upper-triangular n x n matrices
(n <= 3, basis the matrix units e_ij), the direct sum sl2 (+) aff1 and sl3,
whose two draws are kept only where l2 and l3 are both nonzero.  The
subalgebra is spanned by a random set of basis vectors, closed up under the
bracket (a bracket of two basis vectors is supported on basis vectors, so the
closure by supports spans a subalgebra).  Each drawn pair is also re-split:
every complement vector b moves to b + phi(b) for a random integer map
phi: B -> A, which gives beta, eth and pr_B[ , ] several letters and
coefficients other than 1, and leaves the differential as it was.

A drawn pair must pass the higher Jacobi sweep up to arity 5, Q o Q = 0 up
to arity 6, the cross-check of the stored l2 and l3 with Voronov's derived
brackets on every normalized pair and triple, both forms of the action
axioms, the extended square to arity 6 as ``check action`` formats it, equal record for
record to the square of the extension materialized by the oracle
(``gauge_oracle.materialized``), with no structural violation, and one
order-2 gauge coincidence with its bridge identities; at orders 1-4 the
classical gauge series on the contracted brackets must equal the direct
route (``gauge_oracle.check_getzler_routes``), and the layered action of
random coefficients over its whole derivation basis must equal tabulating
the combined Derivation (``gauge_oracle.check_basis_action``).
Its re-splitting must pass the same checks at lower arities (Jacobi to
arity 4, Q o Q to arity 4, the action's bracket rule to arity 2 by the
word-level oracle, no coalgebra form and no extended square), because its denser tables make the full sweeps take about
ten times as long, and must have the same differential.

The paper's symmetry grades every table: the derivations diagonal in L's
basis (``helpers.diagonal_torus``) keep A and B and act strictly, so each
stored d, l2 and l3 output weighs the sum of its inputs' weights, the form
(K | b) weighing w(b) minus the weights of K's letters.  Every draw and its
re-splitting (under its own, often trivial, torus) must be so graded, as must
the catalog pairs and the derandomized draws of ``helpers.drawn_pairs``, and
one l2 output letter swapped for one of another weight must break it.

Two families have exact predictions, each one line of theory: a complement
B that is a subalgebra gives beta = 0, so no l3 and a vanishing derived
Phi_3; and a Cartan subalgebra of a semisimple L acts on L/A with no zero
weight, so the cohomology of d vanishes in every degree.

The draws are derandomized, so every run checks the same pairs.
"""

import random

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from l3pair import catalog
from l3pair import deraction as da
from l3pair import mc as mcmod
from l3pair.lie import LiePair
from l3pair.liepair import L3Pair
from l3pair.linfty import compose, iter_normalized_tuples, square_defects
from l3pair.vectors import GradedElement

import gauge_oracle as go
from helpers import (ALGEBRAS, coordinate_subalgebra, copy_table, derived_brackets, diagonal_torus, drawn_pairs, form_weights,
                     get_l3, jacobi_walk, resplit, scale_pair, sl_algebra, theta_gamma, weight_defects)
from shuffle_oracle import check_action_axioms_by_words


def route_defects(l3) -> list:
    """Normalized pairs and triples where the stored l2 or l3 entry (an absent one counts as zero) differs
    from the derived bracket (``helpers.derived_brackets``): every triple, not only ``ternary_support()``."""
    bad, brackets, derived = [], l3.structure().brackets, derived_brackets(l3)
    for n in (2, 3):
        stored = brackets[n].values if n in brackets else {}
        for key in iter_normalized_tuples(l3.basis, n, symmetric=False):
            if stored.get(key, l3.zero()) != derived(key):
                bad.append(key)
    return bad


def check_identities(pair: LiePair, rng: random.Random, full: bool = True):
    """Assert the identities on one pair, at the lower arities unless ``full``; the pair's form structure."""
    where = (pair.algebra.names, pair.a_names)
    l3 = L3Pair(pair)
    fails, q_square = jacobi_walk(l3.structure(), range(1, 6 if full else 5), 6 if full else 4)
    assert fails == [] and q_square.is_zero(), where
    assert route_defects(l3) == [], where
    assert weight_defects(l3, diagonal_torus(pair.algebra))[0] == [], where
    action = da.ActionMaps(l3, da.derivations(pair.algebra))
    if full:
        tg = theta_gamma(action)
        assert da.check_action_axioms(tg) == [] == da.check_theta_gamma(tg), where
        ext = da.ExtendedStructure(tg)
        square = da.extended_square(ext, q_square, 6, limit=10**6)
        E = go.materialized(ext)
        assert square == square_defects(compose(E, E, 6).items(), limit=10**6), where
        assert ext.violations() == [], where
    else:
        assert check_action_axioms_by_words(action, max_n=2) == [], where
    ctx = mcmod.MCContext(l3, order=2)
    xi = mcmod.random_mc_element(ctx, rng)
    b = mcmod.random_gauge_parameter(ctx, rng)
    assert mcmod.bridge_defects(ctx, b) == [], where
    equal, diff = mcmod.check_gauge_coincidence(ctx, b, xi)
    assert equal, (where, diff)
    for order in (1, 2, 3, 4):  # own seeds, so the draws that follow stay as they were
        ctx = mcmod.MCContext(l3, order=order)
        go.check_getzler_routes(ctx, random.Random(10 + order), draws=1)
        if full:
            go.check_basis_action(ctx, action, random.Random(order))
    return l3


@pytest.mark.parametrize("label", sorted(ALGEBRAS))
@settings(max_examples=8, derandomize=True, deadline=None, database=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), seed=st.integers(min_value=0, max_value=2**16))
def test_identities_hold_on_random_pairs(label, data, seed):
    alg = ALGEBRAS[label]()
    picks = data.draw(st.sets(st.sampled_from(alg.names), min_size=1, max_size=len(alg.names) - 1))
    a_names = coordinate_subalgebra(alg, picks)
    assume(len(a_names) < min(len(alg.names), 5))  # at most 4: 2^5-dimensional forms take seconds each
    rng = random.Random(seed)
    pair = LiePair(alg, a_names)
    l3 = check_identities(pair, rng)
    moved = check_identities(resplit(pair, rng), rng, full=False)
    assert moved.structure().bracket(1) == l3.structure().bracket(1), (label, a_names)


def test_identities_hold_on_sl3_draws_that_reach_l3():
    """Two coordinate subalgebras of at most two letters of sl3 (``helpers.sl_algebra``), drawn from a seeded
    rng among those whose l2 and l3 are both nonzero, and their re-splittings: reductive draws on which
    the kernel sums l3 beside l2."""
    alg, picks, drawn = sl_algebra(3), random.Random("sl3 l3"), []
    while len(drawn) < 2:
        a_names = coordinate_subalgebra(alg, picks.sample(alg.names, picks.randint(1, 2)))
        pair = LiePair(alg, a_names)
        st = L3Pair(pair).structure()
        if len(a_names) > 2 or a_names in drawn or any(st.bracket(k) is None or st.bracket(k).is_zero() for k in (2, 3)):
            continue
        drawn.append(a_names)
        rng = random.Random(" ".join(a_names))
        l3 = check_identities(pair, rng)
        moved = check_identities(resplit(pair, rng), rng, full=False)
        assert moved.structure().bracket(1) == l3.structure().bracket(1), a_names


# (rank of the diagonal torus, outputs compared once per weight); abelian:3 has no entry to compare
CATALOG_TORI = {"sl2": (1, 8), "sl3-cartan": (2, 716), "sl3-borel-complement": (2, 624), "heisenberg": (2, 12),
                "aff1": (1, 1), "abelian:3": (3, 0)}


@pytest.mark.parametrize("name", catalog.EXAMPLE_NAMES)
def test_the_diagonal_torus_grades_every_catalog_table(name):
    l3 = get_l3(name)
    torus = diagonal_torus(l3.pair.algebra)
    defects, checked = weight_defects(l3, torus)
    assert defects == [] and (len(torus), checked) == CATALOG_TORI[name]


def test_the_diagonal_torus_grades_every_drawn_table():
    """Each coordinate-adapted draw has a torus of rank >= 1; its re-splitting keeps only the part
    diagonal in the new basis, often none, and is graded by what is left."""
    for label, pair in drawn_pairs().items():
        torus = diagonal_torus(pair.algebra)
        assert torus or label.endswith(" resplit"), label
        assert weight_defects(L3Pair(pair), torus)[0] == [], label


@pytest.mark.parametrize("name", ["sl3-cartan", "sl3-borel-complement"])
def test_an_l2_letter_of_another_weight_breaks_the_grading(name):
    """The first l2 entry with its first output letter swapped for the first one of the same degree
    and another weight fails the property at that entry alone."""
    l3 = get_l3(name)
    torus = diagonal_torus(l3.pair.algebra)
    weights = [form_weights(l3, w) for w in torus]
    l2 = copy_table(l3.structure().brackets[2])
    key, val = min(l2.values.items())
    s = min(val.coords, key=l3.basis.index)
    t = next(nm for nm in l3.basis.names
             if l3.basis.degree(nm) == l3.basis.degree(s) and any(w[nm] != w[s] for w in weights))
    coords = dict(val.coords)
    coords[t] = coords.get(t, 0) + coords.pop(s)
    l2.values[key] = GradedElement(l3.basis, coords)
    defects, _ = weight_defects(l3, torus, {**l3.structure().brackets, 2: l2})
    assert defects and {(n, k) for _, n, k, _ in defects} == {(2, key)}


# the pairs whose complement B is a subalgebra: three catalog pairs, eight of the draws and sp4-Borel
B_SUBALGEBRA_PAIRS = ["abelian:3", "aff1", "b2 e12", "b2 e12^e22", "b2 e12^e22 resplit", "b3 e23", "n3 e13^e23",
                      "n3 e13^e23 resplit", "sl2+aff1 a", "sl2+aff1 f^b", "sl3-borel-complement", "sp4-borel"]


def test_a_complement_subalgebra_has_no_ternary_bracket():
    """[B, B] in B means beta = pr_A[B, B] = 0, so ``ternary_support()`` is empty, no l3 is stored and
    the derived Phi_3 vanishes on every normalized triple (on sp4-Borel, a seeded sample of 3,000 of its
    2.8 million, whose whole sweep takes about 5 s).  The pairs are picked by closing B under L's bracket."""
    pairs = {**{name: catalog.make_pair(name) for name in catalog.EXAMPLE_NAMES}, **drawn_pairs(),
             "sp4-borel": scale_pair("sp4-borel")}
    closed = sorted(name for name, pair in pairs.items()
                    if all(set(pair.algebra.lie.get((x, y), {})) <= set(pair.b_names) for x in pair.b_names for y in pair.b_names))
    assert closed == B_SUBALGEBRA_PAIRS
    for name in closed:
        l3 = L3Pair(pairs[name])
        assert l3.ternary_support() == [] and 3 not in l3.structure().brackets, name
        triples = iter_normalized_tuples(l3.basis, 3, symmetric=False)
        if name == "sp4-borel":
            rng = random.Random(name)
            triples = [tuple(sorted(rng.sample(l3.basis.names, 3), key=l3.basis.index)) for _ in range(3000)]
        derived = l3._derived(l3._q_field())
        assert not any(derived(key) for key in triples), name


@pytest.mark.parametrize("name", ["sl2", "sl3-cartan", "sp4-cartan", "sl4-cartan"])
def test_a_cartan_subalgebra_of_a_semisimple_algebra_has_no_cohomology(name):
    """A Cartan subalgebra acts on L/A semisimply with no zero weight, so H = 0 in every degree."""
    l3 = L3Pair(catalog.make_pair(name) if name == "sl2" else scale_pair(name))
    assert set(da.CohomologyModel(l3).dims.values()) == {0}
