import random
from fractions import Fraction

import pytest

from l3pair.graded import MultiTable
from l3pair.linfty import (
    Coderivation,
    LInfinityStructure,
    brackets_to_codifferential,
    compose,
    iter_normalized_tuples,
    square_defects,
)
from l3pair.vectors import GradedBasis, GradedElement
from helpers import jacobi_walk
from shuffle_oracle import (
    apply_element,
    arity0_table,
    arity0_value,
    codifferential_to_brackets,
    combine,
    commutator,
    contract,
    element_coderivation,
    extend_coderivation,
    jacobi_defect,
    jacobi_defect_basis,
    make_word,
    selection_chi,
    tensor_coleibniz_defect,
)


def degree_zero_basis(n):
    return GradedBasis([("e%d" % i, 0) for i in range(1, n + 1)])


def non_jacobi_structure():
    """Skew bracket [e1,e2]=e3, [e1,e3]=e1 on three degree-0 generators."""
    V = degree_zero_basis(3)
    b2 = MultiTable(V, 2, "skew", 0)
    b2.set_value(("e1", "e2"), V.unit("e3"))
    b2.set_value(("e1", "e3"), V.unit("e1"))
    return LInfinityStructure(V, {2: b2})


def dgla_from_lie(names, brackets):
    from l3pair.lie import LieAlgebra
    from structure_oracle import lie_table

    alg = LieAlgebra(names, brackets)
    return LInfinityStructure(alg.basis, {2: lie_table(alg)})


def test_jacobi_trivial_unary():
    V = degree_zero_basis(2)
    L = LInfinityStructure(V, {})
    assert jacobi_defect_basis(L, ("e1",)).is_zero()


def test_jacobi_dgla_leibniz():
    L = dgla_from_lie(["h", "e", "f"], {("h", "e"): {"e": 2}, ("h", "f"): {"f": -2}, ("e", "f"): {"h": 1}})
    assert not jacobi_walk(L, range(1, 6), 6)[0]


def test_jacobi_failing_example_frozen_value():
    # brute-force expansion of the arity-3 defect gives exactly -e3
    L = non_jacobi_structure()
    V = L.space
    defect = jacobi_defect_basis(L, ("e1", "e2", "e3"))
    assert defect == -V.unit("e3")
    fails = jacobi_walk(L, range(1, 6), 6)[0]
    assert any(key == ("e1", "e2", "e3") for _, key, _ in fails)


def test_jacobi_multilinear_wrapper():
    L = non_jacobi_structure()
    V = L.space
    args = [V.unit("e1").scale(2), V.unit("e2"), V.unit("e3")]
    assert jacobi_defect(L, 3, args) == -V.unit("e3").scale(2)


def test_jacobi_arity6_structurally_zero():
    rng = random.Random(3)
    L = non_jacobi_structure()
    V = L.space
    for _ in range(10):
        key = tuple(rng.choice(V.names) for _ in range(6))
        assert jacobi_defect_basis(L, key).is_zero()


def test_equivalence_jacobi_vs_codifferential():
    # clean structure: both checks clean; broken structure: both report defects
    good = dgla_from_lie(["x", "y", "z"], {("x", "y"): {"z": 1}})
    assert not jacobi_walk(good, range(1, 6), 6)[0]
    Q = brackets_to_codifferential(good)
    assert compose(Q, Q, 5).is_zero()
    bad = non_jacobi_structure()
    assert jacobi_walk(bad, range(1, 6), 6)[0]
    Q = brackets_to_codifferential(bad)
    defects = square_defects(compose(Q, Q, 5).items())
    assert defects and any(k == 3 for k, _, _ in defects)


def test_brackets_codifferential_roundtrip_random():
    rng = random.Random(11)
    V = GradedBasis([("a", 0), ("x", 1), ("y", 1), ("c", 2)])
    from helpers import random_table

    brackets = {k: random_table(rng, V, k, "skew", 2 - k) for k in (1, 2, 3)}
    L = LInfinityStructure(V, brackets)
    Q = brackets_to_codifferential(L)
    assert Q.degree == 1 and 0 not in Q.components
    back = codifferential_to_brackets(Q, 3, V)
    for k in (1, 2, 3):
        assert back.bracket(k) == L.bracket(k) or (back.bracket(k) is None and L.bracket(k).is_zero())


def test_capped_structure_shifts_to_capped_codifferential():
    good = dgla_from_lie(["x", "y", "z"], {("x", "y"): {"z": 1}})
    Q = brackets_to_codifferential(good)
    assert all(k <= 3 for k in Q.components)


def random_coderivation(rng, shifted, degree, max_arity=2, density=0.4):
    comps = {}
    for k in range(1, max_arity + 1):
        table = MultiTable(shifted, k, "symmetric", degree)
        for key in iter_normalized_tuples(shifted, k, True):
            in_deg = sum(shifted.degree(nm) for nm in key)
            coords = {}
            for nm in shifted.names:
                if shifted.degree(nm) == in_deg + degree and rng.random() < density:
                    coords[nm] = Fraction(rng.randint(-3, 3))
            val = GradedElement(shifted, coords)
            if not val.is_zero():
                table.values[key] = val
        if not table.is_zero():
            comps[k] = table
    return Coderivation(shifted, degree, comps)


def shifted_test_space():
    V = GradedBasis([("a", 0), ("b", 1), ("c", 1), ("d", 2)])
    return V.shifted(1)


def corestriction_oracle(F, G, word):
    """pr_1 of F(G(word)) computed through full word expansions."""
    space = F.space
    inner = extend_coderivation(G, dict([word]) if isinstance(word, tuple) else word)
    total = {}
    for key, coeff in inner.items():
        out = extend_coderivation(F, {key: coeff})
        for k2, c2 in out.items():
            if len(k2) == 1:
                total[k2[0]] = total.get(k2[0], 0) + c2
    return GradedElement(space, total)


def test_compose_matches_word_expansion_oracle():
    rng = random.Random(17)
    S = shifted_test_space()
    for _ in range(12):
        dF = rng.choice([0, 1])
        dG = rng.choice([0, 1])
        F = random_coderivation(rng, S, dF)
        G = random_coderivation(rng, S, dG)
        FG = compose(F, G, 4)
        for n in range(1, 4):
            for key in iter_normalized_tuples(S, n, True):
                via_tables = (
                    FG.component(n).eval_basis(key) if FG.component(n) is not None else S.zero()
                )
                via_words = corestriction_oracle(F, G, {key: Fraction(1)})
                assert via_tables == via_words, (n, key)


def test_walks_stop_at_the_arities_the_tables_reach():
    """F_p o G_q lands in arity p + q - 1: brackets of arity <= 3 give Q o Q and the Jacobi sums in arity <= 5,
    an arity-3 coderivation after an arity-0 one in arity <= 2, so asking for more changes nothing."""
    L = non_jacobi_structure()
    Q = brackets_to_codifferential(L)
    assert compose(Q, Q, 10**6) == compose(Q, Q, 6) and not compose(Q, Q, 6).is_zero()
    assert jacobi_walk(L, range(1, 10**9), 10**9) == jacobi_walk(L, range(1, 6), 6)
    assert jacobi_walk(L, range(1, 10**9), 10**9)[0] and jacobi_walk(L, range(4, 10**9), 10**9)[0] == []
    R = random_coderivation(random.Random(19), shifted_test_space(), 1, max_arity=3)
    vs = element_coderivation(shifted_test_space().unit("a"))
    assert compose(R, vs, 10**6) == compose(R, vs, 2) != compose(R, vs, 1)


def test_compose_with_arity_zero_components():
    rng = random.Random(19)
    S = shifted_test_space()
    R = random_coderivation(rng, S, 1, max_arity=3)
    v = S.unit("a")  # shifted degree -1... pick a homogeneous element
    for nm in S.names:
        v = S.unit(nm)
        vs = element_coderivation(v)
        RvS = compose(R, vs, 4)
        for n in range(1, 4):
            comp = RvS.component(n)
            Rn1 = R.component(n + 1)
            for key in iter_normalized_tuples(S, n, True):
                lhs = comp.eval_basis(key) if comp is not None else S.zero()
                rhs = Rn1.evaluate([v, *map(S.unit, key)]) if Rn1 is not None else S.zero()
                assert lhs == rhs
        # and the other order corestricts to zero in positive arities
        SvR = compose(vs, R, 4)
        assert not SvR.components
        if R.component(1) is not None:
            assert arity0_value(SvR) == R.component(1).evaluate([v]) or (
                arity0_value(SvR) is None and R.component(1).evaluate([v]).is_zero()
            )


def test_commutator_graded_antisymmetry_and_jacobi():
    rng = random.Random(23)
    S = shifted_test_space()
    for _ in range(6):
        degs = [rng.choice([0, 1]) for _ in range(3)]
        F, G, H = (random_coderivation(rng, S, d) for d in degs)
        fg = commutator(F, G, 6)
        gf = commutator(G, F, 6)
        sign = -1 if (F.degree * G.degree) % 2 else 1
        assert combine([(1, fg), (sign, gf)]).is_zero()
        lhs = commutator(F, commutator(G, H, 6), 8)
        rhs1 = commutator(commutator(F, G, 6), H, 8)
        sgn = -1 if (F.degree * G.degree) % 2 else 1
        rhs2 = combine([(sgn, commutator(G, commutator(F, H, 6), 8))])
        diff = combine([(1, lhs), (-1, rhs1), (-1, rhs2)])
        assert diff.is_zero()


def test_contraction_identity():
    # -[v#, R] = ((-1)^(ij) R(v))# + (v -| R), componentwise
    rng = random.Random(29)
    S = shifted_test_space()
    for _ in range(10):
        i = rng.choice([0, 1])
        R = random_coderivation(rng, S, i, max_arity=3)
        nm = rng.choice(S.names)
        v = S.unit(nm).scale(Fraction(rng.randint(1, 3)))
        j = S.degree(nm)
        lhs = combine([(-1, commutator(element_coderivation(v), R, 4))])
        sign = -1 if (i * j) % 2 else 1
        head = apply_element(R, v).scale(sign)
        rhs = contract(v, R)
        if not head.is_zero():
            rhs = combine([(1, rhs), (1, Coderivation(S, i + j, {0: arity0_table(S, i + j, head)}))])
        assert combine([(1, lhs), (-1, rhs)]).is_zero()


def test_contract_unary_only_gives_zero():
    S = shifted_test_space()
    t1 = MultiTable(S, 1, "symmetric", 1)
    t1.values[("a",)] = S.unit("b")
    R = Coderivation(S, 1, {1: t1})
    assert contract(S.unit("a"), R).is_zero()
    assert contract(S.zero().scale(0), R).is_zero() if False else contract(S.zero(), R).is_zero()


def test_extend_coderivation_examples():
    S = GradedBasis([("u", 2), ("v", 2)]).shifted(1)  # both letters have odd shifted degree? no: 2-1=1, odd
    S = GradedBasis([("u", 1), ("v", 1)]).shifted(1)  # shifted degree 0: even letters
    m = MultiTable(S, 1, "symmetric", 0)
    m.values[("u",)] = S.unit("u").scale(2)
    m.values[("v",)] = S.unit("v").scale(3)
    D = Coderivation(S, 0, {1: m})
    word = make_word(S, ("u", "v"))
    out = extend_coderivation(D, word)
    assert out == {("u", "v"): Fraction(5)}
    # arity-0 component prepends its value
    c = Coderivation(S, 0, {0: arity0_table(S, 0, S.unit("u"))})
    out0 = extend_coderivation(c, make_word(S, ("v",)))
    assert out0 == {("u", "v"): Fraction(1)}
    # a single binary component acts by plain evaluation on a 2-word
    t2 = MultiTable(S, 2, "symmetric", 0)
    t2.values[("u", "v")] = S.unit("u")
    D2 = Coderivation(S, 0, {2: t2})
    assert extend_coderivation(D2, make_word(S, ("u", "v"))) == {("u",): Fraction(1)}


def test_coleibniz_full_and_reduced():
    rng = random.Random(31)
    S = shifted_test_space()
    for _ in range(6):
        D = random_coderivation(rng, S, rng.choice([0, 1]), max_arity=3)
        if rng.random() < 0.5:
            coords = {nm: Fraction(rng.randint(-2, 2)) for nm in S.names if S.degree(nm) == D.degree}
            value0 = GradedElement(S, coords)
            D = Coderivation(S, D.degree, {**D.components, 0: arity0_table(S, D.degree, value0)})
        for n in range(0, 5):
            for _ in range(4):
                letters = tuple(rng.choice(S.names) for _ in range(n))
                word = make_word(S, letters)
                if not word:
                    continue
                assert tensor_coleibniz_defect(D, word, reduced=False) == {}
                if 0 not in D.components and n >= 1:
                    assert tensor_coleibniz_defect(D, word, reduced=True) == {}


def test_combine_skips_zero_coefficients_and_drops_cancelling_entries():
    rng = random.Random(41)
    S = shifted_test_space()
    F = random_coderivation(rng, S, 0, max_arity=2)
    assert len(F.components) == 2
    v = S.unit("b").scale(3)  # shifted degree 0
    Fv = Coderivation(S, 0, {**F.components, 0: arity0_table(S, 0, v)})
    assert combine([(0, Fv)]).is_zero()
    assert combine([(1, Fv), (0, Fv)]) == Fv
    assert combine([(Fraction(1, 2), Fv), (Fraction(1, 2), Fv)]) == Fv
    assert combine([(2, Fv), (-1, Fv), (-1, Fv)]).is_zero()
    # a cancelling arity-0 value leaves no arity-0 component behind
    out = combine([(1, Fv), (-1, Coderivation(S, 0, {0: arity0_table(S, 0, v)}))])
    assert 0 not in out.components and out == F
    # one cancelling entry goes, the others stay as they were
    k = max(F.components)
    key, val = next(iter(F.components[k].values.items()))
    single = MultiTable(S, k, "symmetric", 0)
    single.values[key] = val
    rest = combine([(1, F), (-1, Coderivation(S, 0, {k: single}))])
    expected = {kk: vv for kk, vv in F.components[k].values.items() if kk != key}
    assert (rest.component(k).values if rest.component(k) else {}) == expected
    assert rest.component(3 - k) == F.component(3 - k)


def test_combine_rejects_mismatched_terms():
    S = shifted_test_space()
    F = Coderivation(S, 0, {0: arity0_table(S, 0, S.unit("b"))})
    G = Coderivation(S, 1, {0: arity0_table(S, 1, S.unit("d"))})
    with pytest.raises(ValueError):
        combine([(1, F), (1, G)])  # degree
    other = GradedBasis([("a", 0)]).shifted(1)
    with pytest.raises(ValueError):
        combine([(1, F), (0, Coderivation(other, 0, {}))])  # space, even at coefficient 0
    with pytest.raises(ValueError):
        combine([])


def test_self_commutator_odd():
    rng = random.Random(37)
    S = shifted_test_space()
    F = random_coderivation(rng, S, 1, max_arity=2)
    lhs = commutator(F, F, 4)
    rhs = combine([(2, compose(F, F, 4))])
    assert combine([(1, lhs), (-1, rhs)]).is_zero()


def test_alternate_bracket_convention_conversion():
    # the alternating conversion sign turns the Jacobi rules into the variant
    # weighted by (-1)^(i(n-i)): primed brackets satisfy the primed rule
    from itertools import combinations

    from helpers import copy_table, get_l3

    def lada_markl_sign(k: int) -> int:
        """(-1)^(k(k+1)/2): converts arity-k brackets between the two common
        sign conventions for homotopy Lie brackets."""
        return -1 if (k * (k + 1) // 2) % 2 else 1

    assert [lada_markl_sign(k) for k in (1, 2, 3, 4)] == [-1, -1, 1, 1]
    st = get_l3("sl2").structure()
    V = st.space
    primed = {}
    for k, table in st.brackets.items():
        t = copy_table(table)
        if lada_markl_sign(k) == -1:
            t.values = {key: -val for key, val in t.values.items()}
        primed[k] = t

    def primed_defect(names):
        n = len(names)
        pars = [V.parity(nm) for nm in names]
        total = V.zero()
        for i in range(1, n + 1):
            inner = primed.get(i)
            outer = primed.get(n - i + 1)
            if inner is None or outer is None:
                continue
            sgn_i = -1 if (i * (n - i)) % 2 else 1
            for sel in combinations(range(n), i):
                chunk = tuple(names[p] for p in sel)
                val = inner.eval_basis(chunk)
                if val.is_zero():
                    continue
                chi = selection_chi(pars, sel)
                rest = tuple(names[p] for p in range(n) if p not in set(sel))
                total = total + outer.evaluate([val, *map(V.unit, rest)]).scale(sgn_i * chi)
        return total

    for n in range(1, 6):
        for key in iter_normalized_tuples(V, n, symmetric=False):
            assert primed_defect(key).is_zero(), (n, key)


def test_jacobi_and_square_defects_vanish_together():
    # on every basis tuple, the arity-n Jacobi defect vanishes exactly when
    # the arity-n component of the squared codifferential does: the two
    # defect notions are transports of each other
    rng = random.Random(61)
    V = GradedBasis([("a", 0), ("x", 1), ("y", 1), ("c", 2)])
    from helpers import random_table

    for trial in range(8):
        brackets = {}
        for k in (1, 2, 3):
            t = random_table(rng, V, k, "skew", 2 - k, density=0.3)
            if not t.is_zero():
                brackets[k] = t
        L = LInfinityStructure(V, brackets)
        Q = brackets_to_codifferential(L)
        square = compose(Q, Q, 5)
        for n in range(1, 6):
            comp = square.component(n)
            # valid symmetric words on the shifted space are exactly the
            # valid wedge tuples downstairs
            for key in iter_normalized_tuples(Q.space, n, symmetric=True):
                sq_val = comp.values.get(key) if comp is not None else None
                sq_zero = sq_val is None or sq_val.is_zero()
                jac_zero = jacobi_defect_basis(L, key).is_zero()
                assert sq_zero == jac_zero, (trial, n, key)


def test_coderivation_validation():
    S = shifted_test_space()
    t = MultiTable(S, 2, "symmetric", 0)
    t.values[("a", "a")] = S.unit("b")  # placeholder entry to make it nonzero
    with pytest.raises(ValueError):
        Coderivation(S, 1, {2: t})  # degree mismatch
    skew = MultiTable(S, 2, "skew", 1)
    skew.values[("a", "b")] = S.unit("d")
    with pytest.raises(ValueError):
        Coderivation(S, 1, {2: skew})
    other = GradedBasis([("a", 0)]).shifted(1)
    F = Coderivation(S, 1, {})
    G = Coderivation(other, 1, {})
    with pytest.raises(ValueError):
        compose(F, G, 2)
