"""The tables built from symbols equal the per-tuple formulas they were derived from.

``structure()`` and ``ActionMaps`` compute each entry by a loop over the
letters of one form.  Here every table is rebuilt by the reference
evaluators of ``structure_oracle`` (every A-tuple, every shuffle, the forms
evaluated on their blocks) and must be identical, entry for entry: the
differential, both brackets and the action maps of all of Der(L).  The
derived route, Voronov's derived brackets of the Chevalley-Eilenberg field on
L[1], must give the value of the element-level reduction through the Leibniz
relations on every normalized pair and triple, and d on every symbol.  The
action maps must be the derived maps of the derivations' linear fields:
components 0, 1 and 2 of psi_r are P[dhat], P[[dhat, a]] and
P[[[dhat, a1], a2]] (on the catalog, sl3 rescaled, sp4-Cartan, sl4-Cartan
and the draws), and each action row of the mutation registry breaks that on
at least two catalog pairs.

The Jacobi check ``validate_lie``, a sum over the constants of
``LieAlgebra.lie``, must return the element-level check's triples, in the
same order, on every pair below, on sl4, on a rescaled sl3 with
non-integral constants, and on every one-constant perturbation of sl3 and
the Heisenberg algebra.

Pairs: the six catalog pairs, sp4 split at its Cartan subalgebra, and
coordinate subalgebras drawn from b2, b3, n3, sl2 (+) aff1 and sl3, each
also re-split so that beta, eth and pr_B[ , ] have several letters and
coefficients other than 1.
"""

import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations

import pytest

from l3pair import catalog
from l3pair import deraction as da
from l3pair.commands import _jacobi_checks
from l3pair.graded import MultiTable
from l3pair.lie import LieAlgebra, LiePair, validate_lie
from l3pair.liepair import L3Pair
from l3pair.linfty import iter_normalized_tuples
from l3pair.vectors import GradedElement

import mutations as mu
import structure_oracle as so
from test_golden_reports import ROUTE_BROKEN, break_route
from helpers import (RESCALED, derived_brackets, drawn_pairs, jacobi_walk, report_pair, rescaled, scale_pair, sl_algebra,
                     sl_subalgebras, sp4_algebra, theta_gamma)

DRAWN = drawn_pairs()
CASES = list(catalog.EXAMPLE_NAMES) + ["sp4"] + sorted(DRAWN)


def make_pair(case: str) -> LiePair:
    if case == "sp4":
        return LiePair(sp4_algebra(), ["h1", "h2"])
    if case in DRAWN:
        return DRAWN[case]
    return catalog.make_pair(case)


def oracle_table(l3, arity: int, map_degree: int, value) -> MultiTable:
    table = MultiTable(l3.basis, arity, "skew", map_degree)
    for key in iter_normalized_tuples(l3.basis, arity, symmetric=False):
        val = value(key)
        if not val.is_zero():
            table.set_value(key, val)
    return table


def oracle_structure(l3) -> dict:
    """The nonzero tables of d, l2 and l3 from the per-tuple formulas."""
    expected = {
        1: oracle_table(l3, 1, 1, lambda key: so.d_bott(l3, l3.basis.unit(key[0]))),
        2: oracle_table(l3, 2, 0, lambda key: so.bracket2_syms(l3, *key)),
        3: oracle_table(l3, 3, -1, lambda key: so.bracket3_syms(l3, *key)),
    }
    return {n: t for n, t in expected.items() if not t.is_zero()}


@pytest.mark.parametrize("case", CASES)
def test_structure_tables_equal_the_per_tuple_formulas(case):
    l3 = L3Pair(make_pair(case))
    assert l3.structure().brackets == oracle_structure(l3)


@pytest.mark.parametrize("case", CASES)
def test_derived_route_equals_the_element_level_reduction(case):
    l3 = L3Pair(make_pair(case))
    gen, derived = so.GeneratedBrackets(l3), derived_brackets(l3)
    d = l3.structure().brackets[1].values if 1 in l3.structure().brackets else {}
    for nm in l3.basis.names:
        assert derived((nm,)) == d.get((nm,), l3.zero()), nm
    for n, reduced in ((2, gen.b2_gen), (3, gen.b3_gen)):
        for key in iter_normalized_tuples(l3.basis, n, symmetric=False):
            assert derived(key) == reduced(*key), key


def derivation_field(l3, delta) -> dict:
    """The linear field dhat of a derivation on the letters of ``L3Pair._q_field``: dhat(xi^k) =
    -sum_j delta^k_j xi^j, where delta(e_j) = sum_k delta^k_j e_k."""
    index = {nm: i for i, nm in enumerate(l3.pair.a_names + l3.pair.b_names)}
    return {(1 << index[j], index[k]): -c for j, row in delta.images.items() for k, c in row.items()}


def derived_map_defects(l3) -> list:
    """(derivation, key) wherever component n <= 2 of psi_r differs from P[...[dhat_r, x1]..., xn]."""
    ders = da.derivations(l3.pair.algebra)
    tg, names, bad = theta_gamma(da.ActionMaps(l3, ders)), l3.basis.names, []
    keys = [()] + [(nm,) for nm in names] + list(iter_normalized_tuples(l3.basis, 2, symmetric=False))
    for r, (delta, psi) in enumerate(zip(ders, tg.psis)):
        derived = l3._derived(derivation_field(l3, delta))
        for key in keys:
            table = psi.components.get(len(key))
            val = table.values.get(key) if table is not None else None
            if (val.coords if val is not None else {}) != {names[i]: c for i, c in derived(key).items()}:
                bad.append((r, key))
    return bad


# past the catalog, in full: sl4-Cartan's 96 forms take about 0.8 s
SCALE_CASES = ["sp4-cartan", "sl4-cartan"]


@pytest.mark.parametrize("case", list(catalog.EXAMPLE_NAMES) + [RESCALED] + SCALE_CASES + sorted(DRAWN))
def test_action_maps_are_the_derived_maps_of_the_derivations(case):
    l3 = L3Pair(DRAWN[case] if case in DRAWN else scale_pair(case) if case in SCALE_CASES else report_pair(case))
    assert derived_map_defects(l3) == []


ACTION_ROWS = [row for row in mu.REGISTRY if row.argv == mu.ACTION and row.target[0] is da]


@pytest.mark.parametrize("row", ACTION_ROWS, ids=[row.name for row in ACTION_ROWS])
def test_each_action_mutation_breaks_the_derived_maps_on_two_pairs(row, monkeypatch):
    mu.apply(row, monkeypatch)
    broken = [case for case in catalog.EXAMPLE_NAMES if derived_map_defects(L3Pair(catalog.make_pair(case)))]
    assert len(broken) >= 2, broken


@pytest.mark.parametrize("case", CASES)
def test_action_maps_equal_the_per_tuple_formulas(case):
    l3 = L3Pair(make_pair(case))
    ders = da.derivations(l3.pair.algebra)
    action = da.ActionMaps(l3, ders)
    for d, maps in zip(ders, action.maps):
        assert maps[1] == oracle_table(l3, 1, 0, lambda key: so.act1(l3, d, l3.basis.unit(key[0])))
        assert maps[2] == oracle_table(l3, 2, -1, lambda key: so.act2_symbols(l3, d, *key))


def test_the_builders_make_one_element_per_stored_entry(monkeypatch):
    """On sl3-cartan, ``structure()`` and ``ActionMaps`` over all of Der(L) make at most one
    ``GradedElement`` per stored entry, and ``route_defects`` with no mismatch at most one: the
    builders sum into {symbol index: coeff} dicts and wrap only a value they store."""
    l3 = L3Pair(catalog.make_pair("sl3-cartan"))
    ders = da.derivations(l3.pair.algebra)
    made = []
    init = GradedElement.__init__
    monkeypatch.setattr(GradedElement, "__init__", lambda self, *args: made.append(1) or init(self, *args))
    tables = list(l3.structure().brackets.values())
    assert 0 < len(made) <= sum(len(t.values) for t in tables) == 344
    made.clear()
    assert l3.route_defects()[0] == [] and len(made) <= 1
    made.clear()
    tables = [t for maps in da.ActionMaps(l3, ders).maps for t in maps.values()]
    assert 0 < len(made) <= sum(len(t.values) for t in tables) == 352


# pairs where the flip of every word sign is a defect; abelian:3 has no bracket for a sign to
# reach, and on aff1 only the oracle comparison sees it
SIGN_FLIP_CASES = ["sl2", "heisenberg", "sl3-cartan"]


def test_a_flipped_word_sign_is_caught_on_two_pairs(monkeypatch):
    """Flipping the inversion parity of ``L3Pair._sign``, the one word sign of the closed route
    and of the action maps, must fail the Jacobi sweep, the route check and the comparison with
    the oracle's own sort, each on at least two pairs: the derived route never reads it."""
    sign = L3Pair._sign
    monkeypatch.setattr(L3Pair, "_sign", lambda self, *words: -sign(self, *words))
    caught = {"bracket-routes": [], "higher-jacobi": [], "oracle": []}
    for case in SIGN_FLIP_CASES:
        l3 = L3Pair(make_pair(case))
        for check in _jacobi_checks(l3, jacobi_walk(l3.structure(), range(1, 6), 6), 0, []):
            if check["name"] in caught and check["defects"]:
                caught[check["name"]].append(case)
        if l3.structure().brackets != oracle_structure(l3):
            caught["oracle"].append(case)
    assert all(len(cases) >= 2 for cases in caught.values()), caught


def beta_filtered_triples(l3) -> list:
    """The normalized triples with beta != 0 on two of their complement legs, by filtering all of them."""
    return [
        key
        for key in iter_normalized_tuples(l3.basis, 3, symmetric=False)
        if any(l3.beta.get(legs) for legs in combinations([l3.pair.b_names.index(l3.decode[nm][1]) for nm in key], 2))
    ]


@pytest.mark.parametrize("case", CASES)
def test_ternary_support_is_the_beta_filtered_enumeration(case):
    l3 = L3Pair(make_pair(case))
    assert l3.ternary_support() == beta_filtered_triples(l3)


@pytest.mark.parametrize("case", CASES)
def test_both_ternary_routes_vanish_off_the_support(case):
    l3 = L3Pair(make_pair(case))
    support, derived = set(l3.ternary_support()), l3._derived(l3._q_field())
    for key in iter_normalized_tuples(l3.basis, 3, symmetric=False):
        if key not in support:
            assert not any(l3._bracket3_syms(*key).values()) and not derived(key), key


@pytest.mark.parametrize("pair", ["sl3-borel-complement", "sp4-borel"])
def test_no_ternary_symbol_is_evaluated_where_beta_is_zero(pair):
    l3 = L3Pair(scale_pair(pair) if pair == "sp4-borel" else catalog.make_pair(pair))
    calls, derived_keys = [], []
    closed, make_derived = l3._bracket3_syms, l3._derived
    l3._bracket3_syms = lambda *key: calls.append(key) or closed(*key)

    def recorded(field):
        derived = make_derived(field)
        return lambda key: derived_keys.append(key) or derived(key)

    l3._derived = recorded
    assert not l3.beta and 3 not in l3.structure().brackets
    records, pairs, triples = l3.route_defects()
    assert records == [] and triples == 0
    assert calls == [] and len(derived_keys) == pairs and all(len(key) == 2 for key in derived_keys)


# the golden digests pin the route breaks on four catalog pairs; past them, sl3-borel, where
# eth = pr_A[b, a] is nonzero, and the re-split draws, where beta, eth and pr_B[ , ] have several letters
ROUTE_BREAK_CASES = ["sl3-borel"] + [case for case in sorted(DRAWN) if case.endswith(" resplit")]


def test_every_route_break_is_caught_on_two_pairs_past_the_catalog():
    caught = {kind: [] for kind in ROUTE_BROKEN}
    for case in ROUTE_BREAK_CASES:
        pair = scale_pair(case) if case == "sl3-borel" else DRAWN[case]
        for kind in ROUTE_BROKEN:
            l3 = L3Pair(pair)
            break_route(l3, kind)
            if l3.route_defects()[0]:
                caught[kind].append(case)
    assert all(len(cases) >= 2 for cases in caught.values()), caught


# SHA-256 of the canonical JSON of sp4_algebra() as built by its own loop, before matrix_algebra took it over
SP4_DIGEST = "afee5e3f10414e56e02f4631a6d78b112dd9ce1d234d044fecc881fe0191ccba"
# sl_algebra(3)'s names for the catalog's sl3 basis
SL3_NAMES = {"h1": "h1", "h2": "h2", "e12": "e1", "e23": "e2", "e13": "e3", "e21": "f1", "e32": "f2", "e31": "f3"}


def test_matrix_algebras_past_the_catalog():
    sl3 = sl_algebra(3)
    assert not validate_lie(sl3)
    for a_names in sl_subalgebras(3).values():
        LiePair(sl3, a_names)  # raises unless the span is a subalgebra
    catalog_sl3 = catalog.make_pair("sl3-cartan").algebra
    for x, y in combinations(sl3.names, 2):
        got = {SL3_NAMES[nm]: c for nm, c in sl3.lie.get((x, y), {}).items()}
        assert got == catalog_sl3.lie.get((SL3_NAMES[x], SL3_NAMES[y]), {}), (x, y)
    assert hashlib.sha256(json.dumps(sp4_algebra().to_json(), sort_keys=True).encode()).hexdigest() == SP4_DIGEST
    assert scale_pair("sp4-borel").b_names == ("a21", "c11", "c22", "c12")


def perturbations(alg) -> dict:
    """{label: algebra} with one constant c^z_(x, y), x < y in basis order, raised by 1, Jacobi unchecked."""
    index = alg.basis.index
    base = {key: out for key, out in alg.lie.items() if index(key[0]) < index(key[1])}
    out = {}
    for x, y in combinations(alg.names, 2):
        for z in alg.names:
            brackets = dict(base)
            brackets[(x, y)] = dict(base.get((x, y), {}))
            brackets[(x, y)][z] = brackets[(x, y)].get(z, 0) + 1
            out["[%s,%s] + %s" % (x, y, z)] = LieAlgebra(alg.names, brackets, validate=False)
    return out


@pytest.mark.parametrize("case", CASES + ["sl4", "sl3 rescaled"])
def test_jacobi_check_returns_the_element_level_triples(case):
    alg = {"sl4": lambda: sl_algebra(4), "sl3 rescaled": lambda: rescaled(make_pair("sl3-cartan").algebra)}.get(case, lambda: make_pair(case).algebra)()
    assert validate_lie(alg) == so.validate_lie(alg) == []
    if case == "sl3 rescaled":
        assert any(type(c) is Fraction for out in alg.lie.values() for c in out.values())


def sparse_algebra(seed: int, lie: bool) -> LieAlgebra:
    """60 letters in a shuffled order: sl2 and the Heisenberg algebra on six of them, the rest central;
    unless ``lie``, also eight random constants, most of which break the Jacobi identity."""
    rng = random.Random(seed)
    names = ["v%02d" % i for i in range(60)]
    rng.shuffle(names)
    at = names.index
    h, e, f, x, y, z = names[:6]
    brackets = {(h, e): {e: 2}, (h, f): {f: -2}, (e, f): {h: 1}, (x, y): {z: 1}}
    for _ in range(0 if lie else 8):
        u, v = rng.sample(names, 2)
        brackets.setdefault((u, v), {})[rng.choice(names)] = rng.choice([-2, -1, 1, 3])
    oriented = {}
    for (u, v), out in brackets.items():
        key, sign = ((u, v), 1) if at(u) < at(v) else ((v, u), -1)
        for w, c in out.items():
            oriented.setdefault(key, {})[w] = oriented.get(key, {}).get(w, 0) + sign * c
    return LieAlgebra(names, oriented, validate=False)


def test_jacobi_check_returns_the_element_level_triples_on_sparse_algebras():
    """Only triples holding a pair with a nonzero bracket are summed; the others, most of the C(60, 3),
    cannot fail, and the triples that do come out in the oracle's ``combinations`` order."""
    lie, broken = sparse_algebra(0, lie=True), sparse_algebra(0, lie=False)
    assert validate_lie(lie) == so.validate_lie(lie) == []
    found = validate_lie(broken)
    assert found == so.validate_lie(broken) and len(found) == 5, found


@pytest.mark.parametrize("name", ["sl3-cartan", "heisenberg"])
def test_jacobi_check_returns_the_element_level_triples_on_perturbations(name):
    found = {}
    for label, alg in perturbations(catalog.make_pair(name).algebra).items():
        found[label] = validate_lie(alg)
        assert found[label] == so.validate_lie(alg), label
    if name == "sl3-cartan":
        assert all(found.values())
    else:  # one Jacobi triple in dimension 3: the other seven raised constants still give Lie brackets
        assert [label for label, bad in found.items() if bad] == ["[x,z] + x", "[y,z] + y"]
        assert found["[x,z] + x"] == [("x", "y", "z")]
