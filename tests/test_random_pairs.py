"""The identities on Lie pairs drawn at random, beyond the catalog.

Algebras: upper-triangular and strictly upper-triangular n x n matrices
(n <= 3, basis the matrix units e_ij) and the direct sum sl2 (+) aff1.  The
subalgebra is spanned by a random set of basis vectors, closed up under the
bracket (a bracket of two basis vectors is supported on basis vectors, so the
closure by supports spans a subalgebra).  Each drawn pair must pass the
higher Jacobi sweep up to arity 5, Q o Q = 0 up to arity 6, both forms of the
action axioms and one order-2 gauge coincidence with its bridge identities.

The draws are derandomized, so every run checks the same pairs.
"""

import random
from itertools import combinations

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from l3pair import catalog
from l3pair import deraction as da
from l3pair import mc as mcmod
from l3pair.liepair import LieAlgebra, LiePair, build_l3
from l3pair.linfty import brackets_to_codifferential, check_codifferential, jacobi_sweep


def triangular(n: int, strict: bool) -> LieAlgebra:
    """Upper-triangular n x n matrices (strictly so if ``strict``), [e_ij, e_kl] = d_jk e_il - d_li e_kj."""
    units = [(i, j) for i in range(1, n + 1) for j in range(i + int(strict), n + 1)]
    name = {u: "e%d%d" % u for u in units}
    brackets = {}
    for (i, j), (k, l) in combinations(units, 2):
        out = {}
        if j == k:
            out[name[(i, l)]] = 1
        if l == i:
            out[name[(k, j)]] = -1
        if out:
            brackets[(name[(i, j)], name[(k, l)])] = out
    return LieAlgebra([name[u] for u in units], brackets)


def direct_sum(*algebras) -> LieAlgebra:
    names = [nm for alg in algebras for nm in alg.names]
    brackets = {}
    for alg in algebras:
        for (left, right), val in alg.table.values.items():
            brackets[(left, right)] = dict(val.coords)
    return LieAlgebra(names, brackets)


ALGEBRAS = {
    "b2": lambda: triangular(2, strict=False),
    "b3": lambda: triangular(3, strict=False),
    "n3": lambda: triangular(3, strict=True),
    "sl2+aff1": lambda: direct_sum(catalog.make_pair("sl2").algebra, catalog.make_pair("aff1").algebra),
}


def coordinate_subalgebra(alg: LieAlgebra, picks) -> list:
    """The smallest set of basis names containing ``picks`` whose span is a subalgebra."""
    chosen = set(picks)
    while True:
        grown = set(chosen)
        for x, y in combinations(sorted(chosen), 2):
            grown |= set(alg.bracket_names(x, y).coords)
        if grown == chosen:
            return [nm for nm in alg.names if nm in chosen]
        chosen = grown


@pytest.mark.parametrize("label", sorted(ALGEBRAS))
@settings(max_examples=8, derandomize=True, deadline=None, database=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), seed=st.integers(min_value=0, max_value=2**16))
def test_identities_hold_on_random_pairs(label, data, seed):
    alg = ALGEBRAS[label]()
    picks = data.draw(st.sets(st.sampled_from(alg.names), min_size=1, max_size=len(alg.names) - 1))
    a_names = coordinate_subalgebra(alg, picks)
    assume(len(a_names) < min(len(alg.names), 5))  # at most 4: 2^5-dimensional forms take seconds each
    pair = LiePair(alg, a_names)
    l3 = build_l3(pair)
    assert jacobi_sweep(l3.structure(), range(1, 6)) == [], (label, pair.a_names)
    assert check_codifferential(brackets_to_codifferential(l3.structure()), 6) == [], (label, pair.a_names)
    action = da.ActionMaps(l3, da.derivations(pair.algebra))
    assert da.check_action_axioms(action) == [], (label, pair.a_names)
    assert da.check_theta_gamma(da.to_theta_gamma(action)) == [], (label, pair.a_names)
    ctx = mcmod.MCContext(l3, order=2)
    rng = random.Random(seed)
    xi = mcmod.random_mc_element(ctx, rng)
    b = mcmod.random_gauge_parameter(ctx, rng)
    equal, diff = mcmod.check_gauge_coincidence(ctx, b, xi)
    assert equal, (label, pair.a_names, diff)
