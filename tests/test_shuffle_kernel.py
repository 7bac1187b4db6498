"""The support-driven shuffle-insertion kernel against word-by-subset evaluation.

Every comparison is exact and covers the order of the reported failures and
their truncation at ``limit``, not just whether a check passes.
"""

import copy
import random
from fractions import Fraction

import pytest

import shuffle_oracle as oracle
from gauge_oracle import derivation_sum
from helpers import RESCALED, copy_table, drawn_pairs, get_l3, jacobi_walk, random_table, report_pair, theta_gamma
from shuffle_oracle import combine, commutator, commutator_terms
from l3pair import catalog
from l3pair import deraction as da
from l3pair.graded import Accumulator, MultiTable, ShuffleInsertion
from l3pair.liepair import L3Pair
from l3pair.linfty import Coderivation, LInfinityStructure, brackets_to_codifferential, compose, compose_terms, jacobi_square
from l3pair.vectors import GradedBasis, GradedElement
from test_golden_reports import BROKEN, broken_action

LIMITS = (1, 5, 16, 10**6)


@pytest.mark.parametrize("name", catalog.EXAMPLE_NAMES)
def test_catalog_pair_sweeps_match_oracle(name):
    # Q o Q alone, then both gradings from the paired walks, against one oracle evaluation
    l3 = get_l3(name)
    st = l3.structure()
    Q = brackets_to_codifferential(st)
    square = oracle.compose_by_words(Q, Q, 6)
    assert compose(Q, Q, 6) == square
    assert jacobi_walk(st, range(1, 6), 6) == (oracle.jacobi_sweep_by_words(st, range(1, 6)), square)
    action = da.ActionMaps(l3, da.derivations(l3.pair.algebra))
    assert da.check_action_axioms(theta_gamma(action)) == oracle.check_action_axioms_by_words(action)


def _mutate(rng, action):
    """A copy of the action with one random mu1/mu2 entry rescaled, changed, dropped or added."""
    out = copy.copy(action)
    out.maps = [{n: copy_table(t) for n, t in maps.items()} for maps in action.maps]
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
    l3 = get_l3(name)
    base = da.ActionMaps(l3, da.derivations(l3.pair.algebra))
    limits = LIMITS if name != "sl3-cartan" else (3, 16)
    for _ in range(trials):
        action = _mutate(rng, base)
        tg = theta_gamma(action)
        for limit in limits:
            got = da.check_action_axioms(tg, limit=limit)
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
            got = jacobi_walk(L, range(1, 6), 6, limit=limit)[0]
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
    out = copy_table(table)
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
        got = jacobi_walk(L, range(1, 6), 6, limit=10**6)[0]
        assert got == oracle.jacobi_sweep_by_words(L, range(1, 6), limit=10**6)
        assert _fraction_coords(defect for _, _, defect in got)
        found += len(got)
    assert found


@pytest.mark.parametrize("name", ["sl2", "heisenberg"])
def test_action_sweep_on_a_rational_derivation_basis_matches_oracle(name):
    # a basis of thirds and fifths of derivations: non-integral action tables
    # and non-integral commutator coordinates in the commutator rule
    l3 = get_l3(name)
    ders = da.derivations(l3.pair.algebra)
    scaled = [derivation_sum(l3.pair.algebra, [(FACTORS[r % len(FACTORS)], d)]) for r, d in enumerate(ders)]
    action = da.ActionMaps(l3, scaled)
    assert any(c.denominator > 1 for coords in action.commutator_coords.values() for c in coords)
    assert da.check_action_axioms(theta_gamma(action)) == [] == oracle.check_action_axioms_by_words(action)
    rng = random.Random("rational-action-" + name)
    for _ in range(4):
        broken = _mutate(rng, action)
        got = da.check_action_axioms(theta_gamma(broken), limit=10**6)
        assert got and got == oracle.check_action_axioms_by_words(broken, limit=10**6)
        assert _fraction_coords(rec["defect"] for rec in got)


# --- one kernel per check: tables compiled once, read by identity --------------

DRAWN = drawn_pairs()
# the re-split draws but "sl3 h1^e3 resplit", whose dense tables take about 4 s per theta/gamma check
REUSE_CASES = list(catalog.EXAMPLE_NAMES) + [
    case for case in sorted(DRAWN) if case.endswith(" resplit") and case != "sl3 h1^e3 resplit"
]


def _theta_gamma(case):
    l3 = L3Pair(DRAWN[case]) if case in DRAWN else get_l3(case)
    return theta_gamma(da.ActionMaps(l3, da.derivations(l3.pair.algebra)))


def theta_gamma_by_combine(tg, limit=10**6):
    """``check_theta_gamma`` with every commutator in a fresh kernel and the bracket defect
    summed by ``combine``: the records the fused defect must reproduce."""
    defects = []
    psis = tg.psis

    def record(defect, identities, inputs) -> bool:
        gamma, theta = defect.component(0), defect.truncate()
        if gamma is not None:
            defects.append({"identity": identities[0], "inputs": inputs, "defect": gamma.evaluate([])})
        if not theta.is_zero():
            defects.append({"identity": identities[1], "inputs": inputs, "defect": theta})
        return len(defects) >= limit

    for r, psi in enumerate(psis):
        if record(commutator(tg.Q, psi, 4), ("gamma-cocycle", "theta-chain"), ["der%d" % r]):
            return defects
    for (r, s), coords in tg.action.commutator_coords.items():
        defect = combine([(c, psis[u]) for u, c in enumerate(coords)] + [(-1, commutator(psis[r], psis[s], 3))])
        if record(defect, ("gamma-bracket", "theta-bracket"), ["der%d" % r, "der%d" % s]):
            return defects
    return defects


@pytest.mark.parametrize("case", REUSE_CASES)
def test_one_kernel_across_a_check_matches_a_fresh_kernel_per_composite(case):
    # the check's composites in its order: each psi is read with factor 1 in [Q, psi],
    # then with -1 as the left side of a bracket, so a cached factor or a cache keyed
    # by anything but the table shows
    tg = _theta_gamma(case)
    kernel = ShuffleInsertion(tg.l3.basis)
    for psi in tg.psis:
        assert compose_terms(kernel, commutator_terms(tg.Q, psi), 4) == commutator(tg.Q, psi, 4)
    for (r, s), coords in tg.action.commutator_coords.items():
        F, G = tg.psis[r], tg.psis[s]
        assert compose_terms(kernel, commutator_terms(F, G), 3) == commutator(F, G, 3), (r, s)
        linear = [(c, tg.psis[u]) for u, c in enumerate(coords) if c]
        assert tg.square[(r, s)] == combine(linear + [(-1, commutator(F, G, 3))]), (r, s)
        assert tg.square[(r, s)].is_zero()


@pytest.mark.parametrize("case", REUSE_CASES)
def test_fused_bracket_defect_equals_the_combination_on_sound_actions(case):
    tg = _theta_gamma(case)
    assert da.check_theta_gamma(tg, limit=10**6) == [] == theta_gamma_by_combine(tg)


@pytest.mark.parametrize("pair", sorted(BROKEN))
def test_fused_bracket_defect_equals_the_combination_on_broken_actions(pair):
    l3 = get_l3(pair)
    action = da.ActionMaps(l3, da.derivations(l3.pair.algebra))
    for kind, r, key, factor in BROKEN[pair]:
        tg = theta_gamma(broken_action(action, kind, r, key, factor))
        for limit in (3, 10**6):
            got = da.check_theta_gamma(tg, limit=limit)
            assert got and got == theta_gamma_by_combine(tg, limit), (kind, r, key, factor, limit)


def _with_non_words(D: Coderivation, k: int, extra: dict) -> Coderivation:
    """D with ``extra`` {key: coords} written straight into a copy of component k."""
    table = copy_table(D.component(k))
    for key, coords in extra.items():
        table.values[key] = GradedElement(D.space, coords)
    return Coderivation(D.space, D.degree, {**D.components, k: table})


def test_non_word_keys_contribute_what_the_oracle_reads_as_inner_and_outer():
    # after the shift a and d are odd, so ("a", "a") vanishes; ("c", "b") is unsorted
    rng = random.Random("non-words")
    S = GradedBasis([("a", 0), ("b", 1), ("c", 1), ("d", 2), ("e", 3)]).shifted(1)
    for trial in range(6):
        F, G = (Coderivation(S, 0, {k: random_table(rng, S, k, "symmetric", 0, density=0.35) for k in (1, 2)})
                for _ in range(2))
        # written past set_value: no lookup by sorted word reaches these keys, so they add nothing
        extra = {("a", "a"): {"b": Fraction(3)}, ("c", "b"): {"b": Fraction(-2), "c": Fraction(1, 3)}}
        for Fx, Gx in ((_with_non_words(F, 2, extra), G), (F, _with_non_words(G, 2, extra))):
            assert compose(Fx, Gx, 4) == oracle.compose_by_words(Fx, Gx, 4) == compose(F, G, 4), trial
    V = GradedBasis([("a", 0), ("x", 1), ("y", 1), ("c", 2)])
    brackets = {k: random_table(rng, V, k, "skew", 2 - k, density=0.4) for k in (1, 2, 3)}
    brackets[2].values[("a", "a")] = GradedElement(V, {"a": Fraction(2)})  # a repeated even letter in a wedge
    brackets[2].values[("y", "x")] = GradedElement(V, {"c": Fraction(5)})  # unsorted
    L = LInfinityStructure(V, brackets)
    assert jacobi_walk(L, range(1, 5), 5, limit=10**6)[0] == oracle.jacobi_sweep_by_words(L, range(1, 5), limit=10**6)


def test_tables_from_another_space_or_symmetry_are_rejected_on_either_side():
    # a table over the shifted basis has the unshifted names: read as is, it would take the wrong parities
    rng = random.Random("mismatch")
    V = GradedBasis([("a", 0), ("x", 1), ("c", 2)])
    outer = random_table(rng, V, 2, "symmetric", 1, density=1.0)
    good = random_table(rng, V, 1, "symmetric", 1, density=1.0)
    shifted = random_table(rng, V.shifted(1), 1, "symmetric", 1, density=1.0)
    skew = random_table(rng, V, 1, "skew", 1, density=1.0)
    assert outer.values and good.values and shifted.values and skew.values
    accs = (Accumulator(), Accumulator())
    for bad in (shifted, skew):
        kernel = ShuffleInsertion(V.shifted(-1))  # side 1 reads symmetric tables over V
        with pytest.raises(ValueError, match="does not match the insertion space"):
            kernel.add(accs, (None, outer), (None, bad), (0, 1))
        with pytest.raises(ValueError, match="does not match the insertion space"):
            kernel.add(accs, (None, bad), (None, good), (0, 1))
        with pytest.raises(ValueError, match="does not match the insertion space"):
            kernel.add_table(accs, (None, bad), 1)
    # side 0 reads skew tables over V and side 1 symmetric ones over V[1]: a table on the wrong side is rejected
    for pair in ((good, None), (skew, good), (None, skew)):
        with pytest.raises(ValueError, match="does not match the insertion space"):
            ShuffleInsertion(V).add_table(accs, pair, 1)
    # a word counts each letter in 8 bits, so two merged keys must stay below 256 letters
    with pytest.raises(ValueError, match="exceeds the kernel's 127"):
        ShuffleInsertion(V.shifted(-1)).add(accs, (None, outer), (None, MultiTable(V, 128, "symmetric", 1)), (0, 1))


# --- the paired walk: each identity and its decalage image from one join enumeration ---

def test_paired_jacobi_and_square_on_rational_brackets_match_the_oracle():
    # sl3 on a rescaled basis: d, l2 and l3 over denominators 6, 2520 and 7560 on V and on V[1]
    st = L3Pair(report_pair(RESCALED)).structure()
    Q = st.codifferential
    jacobi, square = jacobi_walk(st, range(1, 4), 4)
    assert jacobi == oracle.jacobi_sweep_by_words(st, range(1, 4)) == []
    assert square == oracle.compose_by_words(Q, Q, 4) == compose(Q, Q, 4)


def test_one_sided_walks_make_the_joins_of_the_paired_walk_once_each():
    # on matching key sets a walk with one side idle meets the same outer keys as the paired walk
    rng = random.Random("joins")
    V = GradedBasis([("a", 0), ("x", 1), ("y", 1), ("c", 2)])
    for _ in range(4):
        L = LInfinityStructure(V, {k: random_table(rng, V, k, "skew", 2 - k, density=0.5) for k in (1, 2, 3)})
        walks = [ShuffleInsertion(V) for _ in range(3)]
        paired = jacobi_square(walks[0], L, range(1, 6), 5, limit=10**6)
        assert jacobi_square(walks[1], L, range(1, 6), 0, limit=10**6)[0] == paired[0]  # Q o Q to arity 0: none
        assert jacobi_square(walks[2], L, (), 5) == ([], paired[1])
        assert walks[0].joins == walks[1].joins == walks[2].joins > 0


def test_paired_walk_on_sides_with_different_keys_matches_the_oracle_on_each():
    # one entry of l2's transport dropped (it stays on V only) and another of l2 itself (on V[1] only)
    rng = random.Random("different keys")
    V = GradedBasis([("a", 0), ("x", 1), ("y", 1), ("c", 2)])
    for trial in range(6):
        L = LInfinityStructure(V, {k: random_table(rng, V, k, "skew", 2 - k, density=0.6) for k in (1, 2, 3)})
        Q = brackets_to_codifferential(L)
        keys = sorted(L.bracket(2).values)
        assert len(keys) >= 2
        q2 = copy_table(Q.component(2))
        del q2.values[keys[trial % len(keys)]], L.bracket(2).values[keys[(trial + 1) % len(keys)]]
        L.codifferential = Coderivation(Q.space, 1, {**Q.components, 2: q2})
        jacobi, square = jacobi_walk(L, range(1, 5), 5, limit=10**6)
        assert jacobi == oracle.jacobi_sweep_by_words(L, range(1, 5), limit=10**6)
        assert square == oracle.compose_by_words(L.codifferential, L.codifferential, 5)
    # one entry of a mu dropped after its psi was built (on V[1] only), another of that psi (on V only)
    l3 = get_l3("sl2")
    action = da.ActionMaps(l3, da.derivations(l3.pair.algebra))
    tg = theta_gamma(action)
    r, n = next((r, n) for r, maps in enumerate(action.maps) for n in (1, 2) if len(maps[n].values) >= 2)
    keys = sorted(action.maps[r][n].values)
    mu, psi = copy_table(action.maps[r][n]), copy_table(tg.psis[r].component(n))
    del mu.values[keys[0]], psi.values[keys[1]]
    action.maps[r] = {**action.maps[r], n: mu}
    tg.psis[r] = Coderivation(tg.shifted, 0, {**tg.psis[r].components, n: psi})
    axioms = da.check_action_axioms(tg, limit=10**6)
    assert axioms and axioms == oracle.check_action_axioms_by_words(action, limit=10**6)
    assert da.check_theta_gamma(tg, limit=10**6) == theta_gamma_by_combine(tg) != []


def up_to_arity_two(records) -> list:
    """The bracket records of arity <= 2 and the commutator records of arity <= 1: those the oracle's
    sweep at max_n=2 makes."""
    cap = {da.BRACKET_RULE: 2, da.COMMUTATOR_RULE: 1}
    return [rec for rec in records if int(rec["identity"].rsplit("-n", 1)[1]) <= cap[rec["identity"].rsplit("-n", 1)[0]]]


@pytest.mark.parametrize("pair", sorted(BROKEN))
def test_paired_walk_on_broken_actions_matches_each_form_alone(pair):
    # the axioms of one walk against the oracle (on sl3-cartan, whose whole oracle sweep takes about 8 s per
    # action, its first records and every record the oracle finds to arity 2) and its theta/gamma square
    # against the commutators composed one by one
    l3 = get_l3(pair)
    action = da.ActionMaps(l3, da.derivations(l3.pair.algebra))
    for kind, r, key, factor in BROKEN[pair]:
        broken = broken_action(action, kind, r, key, factor)
        tg = theta_gamma(broken)
        axioms = da.check_action_axioms(tg, limit=10**6)
        first = oracle.check_action_axioms_by_words(broken, limit=3)
        assert axioms[:3] == da.check_action_axioms(tg, limit=3) == first != [], (kind, r, key, factor)
        if pair == "sl3-cartan":
            low = oracle.check_action_axioms_by_words(broken, max_n=2, limit=10**6)
            assert up_to_arity_two(axioms) == low != [], (kind, r, key, factor)
        else:
            assert axioms == oracle.check_action_axioms_by_words(broken, limit=10**6), (kind, r, key, factor)
        assert da.check_theta_gamma(tg, limit=10**6) == theta_gamma_by_combine(tg), (kind, r, key, factor)


def test_the_axioms_and_the_coalgebra_form_read_one_walk():
    # the walk runs in the ThetaGamma's kernel on first read; the other check and a second read make no join
    l3 = get_l3("sl2")
    tg = theta_gamma(da.ActionMaps(l3, da.derivations(l3.pair.algebra)))
    assert da.check_action_axioms(tg) == [] and tg.kernel.joins > 0
    joins = tg.kernel.joins
    assert da.check_theta_gamma(tg) == [] == da.check_action_axioms(tg, limit=1) and tg.kernel.joins == joins
