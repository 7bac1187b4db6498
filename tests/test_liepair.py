import hashlib
import json
import random
from fractions import Fraction
from itertools import permutations, product

import pytest

from l3pair import catalog, linalg
from l3pair.graded import normalize_tuple
from l3pair.lie import LieAlgebra, LiePair, validate_lie
from l3pair.liepair import L3Pair
from l3pair.linfty import iter_normalized_tuples
from l3pair.vectors import GradedElement
from helpers import change_basis, get_l3, get_pair, jacobi_walk, scale_pair
from shuffle_oracle import jacobi_defect_basis, koszul_chi
import structure_oracle as so

SMALL_PAIRS = ("sl2", "heisenberg", "aff1", "abelian:3")
ALL_PAIRS = ("sl2", "sl3-cartan", "sl3-borel-complement", "heisenberg", "aff1", "abelian:3")


@pytest.mark.parametrize("name", catalog.EXAMPLE_NAMES)
def test_digest_is_the_sha256_prefix_of_the_canonical_json(name):
    pair = get_pair(name)
    payload = json.dumps(pair.to_json(), sort_keys=True, separators=(",", ":")).encode()
    assert pair.digest() == hashlib.sha256(payload).hexdigest()[:16]


@pytest.mark.parametrize("name", ("sl2", "sl3-borel-complement", "abelian:3"))
def test_sort_wedge_is_the_normal_form_of_a_degree_zero_word(name):
    """The oracle's inversion count (``structure_oracle.sort_wedge``) agrees with the general
    normal form on words of A names, repeats included, given as tuples or as lists."""
    l3 = get_l3(name)
    rng = random.Random(name)
    for _ in range(300):
        word = tuple(rng.choice(l3.pair.a_names) for _ in range(rng.randint(0, 5)))
        expected = normalize_tuple(l3.pair.algebra.basis, word, False)
        assert so.sort_wedge(l3, word) == so.sort_wedge(l3, list(word)) == expected, word


def test_bitmask_sign_is_the_oracle_sort_on_every_short_word():
    """On sp4-Borel's six A letters, every word of length <= 4 is split into up to three blocks
    at every pair of cut points.  The package's sign of the blocks' merge must be the oracle's
    sort sign of the whole word, times the blocks' own sort signs.  It is 0 where two blocks
    share a letter, and then the oracle finds a repeat."""
    l3 = L3Pair(scale_pair("sp4-borel"))
    a_names = l3.pair.a_names
    assert len(a_names) == 6
    bit = {nm: 1 << i for i, nm in enumerate(a_names)}
    checked = zeros = 0
    for n in range(5):
        for word in product(a_names, repeat=n):
            whole, _ = so.sort_wedge(l3, word)
            for i in range(n + 1):
                for j in range(i, n + 1):
                    blocks = [word[:i], word[i:j], word[j:]]
                    own = [so.sort_wedge(l3, block)[0] for block in blocks]
                    if 0 in own:  # a block with a repeat is no word
                        continue
                    got = l3._sign(*(sum(bit[nm] for nm in block) for block in blocks))
                    assert got == whole * own[0] * own[1] * own[2], (word, i, j)
                    checked += 1
                    zeros += got == 0
    assert checked > 10000 and zeros > 1000


def test_validate_lie_examples():
    assert validate_lie(get_pair("sl2").algebra) == []
    assert validate_lie(get_pair("abelian:3").algebra) == []
    bad = LieAlgebra(
        ["e1", "e2", "e3"],
        {("e1", "e2"): {"e3": 1}, ("e1", "e3"): {"e1": 1}},
        validate=False,
    )
    assert validate_lie(bad) == [("e1", "e2", "e3")]
    with pytest.raises(ValueError):
        LieAlgebra(["e1", "e2", "e3"], {("e1", "e2"): {"e3": 1}, ("e1", "e3"): {"e1": 1}})


@pytest.mark.parametrize("name", catalog.EXAMPLE_NAMES)
def test_the_bracket_is_held_once(name):
    """``lie`` is skew, holds no zero, keeps integral constants as ints, and the form engine keeps
    no copy of it; ``bracket`` and ``bracket_names`` evaluate the table built from it."""
    pair = catalog.make_pair(name)
    alg = pair.algebra
    assert not any(v is not alg.lie and v == alg.lie for v in vars(L3Pair(pair)).values() if v)
    for (x, y), out in alg.lie.items():
        assert out and all(type(c) is int and c for c in out.values())
        assert alg.lie[(y, x)] == {nm: -c for nm, c in out.items()}
    table = so.lie_table(alg)
    rng = random.Random(name)
    for x in alg.names:
        for y in alg.names:
            assert alg.bracket_names(x, y) == table.eval_basis((x, y))
    def draw():
        return GradedElement(alg.basis, {nm: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for nm in alg.names})

    for _ in range(20):
        u, v = draw(), draw()
        assert alg.bracket(u, v) == table.evaluate([u, v])


def test_subalgebra_validation():
    alg = get_pair("sl2").algebra
    with pytest.raises(ValueError):
        LiePair(alg, ["e", "f"])  # [e,f] = h leaves the span
    with pytest.raises(ValueError):
        LiePair(alg, ["h", "h"])
    with pytest.raises(ValueError):
        LiePair(alg, ["nope"])


def test_bott_examples():
    sl2 = get_pair("sl2")
    alg = sl2.algebra
    assert so.bott(sl2, alg.unit("h"), alg.unit("e")) == alg.unit("e").scale(2)
    heis = get_pair("heisenberg")
    assert so.bott(heis, heis.algebra.unit("z"), heis.algebra.unit("x")).is_zero()
    aff = get_pair("aff1")
    assert so.bott(aff, aff.algebra.unit("a"), aff.algebra.unit("b")) == aff.algebra.unit("b")
    with pytest.raises(ValueError):
        so.bott(sl2, alg.unit("e"), alg.unit("f"))  # first slot must live in A


def test_eth_examples():
    sl2 = get_pair("sl2")
    alg = sl2.algebra
    assert so.eth_on_a(sl2, alg.unit("e"), alg.unit("h")).is_zero()
    aff = get_pair("aff1")
    assert so.eth_on_a(aff, aff.algebra.unit("b"), aff.algebra.unit("a")).is_zero()
    l3 = get_l3("sl2")
    # dual action on the degree-one generator vanishes accordingly
    assert so.eth_scalar(l3, alg.unit("e"), so.scalar_basis(l3).unit("h")).is_zero()
    # sl3 with the lowering span: eth is nontrivial there
    b = get_pair("sl3-borel-complement")
    got = so.eth_on_a(b, b.algebra.unit("e1"), b.algebra.unit("f3"))
    assert got == b.algebra.unit("f2").scale(-1)


def test_beta_and_bracket_b_examples():
    sl2 = get_pair("sl2")
    alg = sl2.algebra
    assert so.beta(sl2, alg.unit("e"), alg.unit("f")) == alg.unit("h")
    assert so.bracket_b(sl2, alg.unit("e"), alg.unit("f")).is_zero()
    heis = get_pair("heisenberg")
    assert so.beta(heis, heis.algebra.unit("x"), heis.algebra.unit("y")) == heis.algebra.unit("z")
    assert so.bracket_b(heis, heis.algebra.unit("x"), heis.algebra.unit("y")).is_zero()
    # when B is a subalgebra, beta vanishes identically
    borel = get_pair("sl3-borel-complement")
    for b1 in borel.b_names:
        for b2 in borel.b_names:
            assert so.beta(borel, borel.algebra.unit(b1), borel.algebra.unit(b2)).is_zero()


def test_differential_examples():
    l3 = get_l3("sl2")
    assert so.d_closed(l3, l3.basis.unit("e")) == l3.basis.unit("h|e").scale(2)
    aff = get_l3("aff1")
    assert so.d_closed(aff, aff.basis.unit("b")) == aff.basis.unit("a|b")
    heis = get_l3("heisenberg")
    for b in heis.pair.b_names:
        assert so.d_closed(heis, heis.basis.unit(b)).is_zero()


def test_differentials_square_to_zero():
    for name in ALL_PAIRS:
        l3 = get_l3(name)
        for nm in l3.basis.names:
            assert so.d_closed(l3, so.d_closed(l3, l3.basis.unit(nm))).is_zero(), (name, nm)
        for nm in so.scalar_basis(l3).names:
            assert so.d_scalar(l3, so.d_scalar(l3, so.scalar_basis(l3).unit(nm))).is_zero(), (name, nm)


def test_anchor_examples():
    l3 = get_l3("sl2")
    out = so.anchor2(l3, l3.basis.unit("e"), l3.basis.unit("f"), so.scalar_basis(l3).unit("h"))
    assert out == so.scalar_basis(l3).unit("1").scale(-1)
    # degree-0 forms act trivially on constants
    assert so.anchor1(l3, l3.basis.unit("e"), so.scalar_basis(l3).unit("1")).is_zero()
    borel = get_l3("sl3-borel-complement")
    for x in ("h1", "e1"):
        for y in ("h2", "e2"):
            out = so.anchor2(
                borel, borel.basis.unit(x), borel.basis.unit(y), so.scalar_basis(borel).unit("f1")
            )
            assert out.is_zero()


def test_bracket2_examples():
    l3 = get_l3("sl2")
    assert l3.bracket2(l3.basis.unit("e"), l3.basis.unit("f")).is_zero()
    assert l3.bracket2(l3.basis.unit("f"), l3.basis.unit("h|e")).is_zero()
    ab = get_l3("abelian:3")
    for x in ab.basis.names:
        for y in ab.basis.names:
            assert ab.bracket2(ab.basis.unit(x), ab.basis.unit(y)).is_zero()
    # nonzero complement product shows up directly
    c = get_l3("sl3-cartan")
    assert c.bracket2(c.basis.unit("e1"), c.basis.unit("e2")) == c.basis.unit("e3")


def test_bracket3_examples():
    l3 = get_l3("sl2")
    got = so.bracket3(l3, l3.basis.unit("e"), l3.basis.unit("f"), l3.basis.unit("h|e"))
    assert got == l3.basis.unit("e").scale(-1)
    for x, y, z in [("e", "f", "e"), ("e", "f", "f")]:
        assert so.bracket3(l3, l3.basis.unit(x), l3.basis.unit(y), l3.basis.unit(z)).is_zero()
    borel = get_l3("sl3-borel-complement")
    st = borel.structure()
    assert st.bracket(3) is None or st.bracket(3).is_zero()


def test_build_l3_abelian_trivial():
    ab = get_l3("abelian:3")
    st = ab.structure()
    assert all(t.is_zero() for t in st.brackets.values()) or not st.brackets


def test_jacobi_suite_small_pairs():
    for name in SMALL_PAIRS:
        st = get_l3(name).structure()
        fails, square = jacobi_walk(st, range(1, 6), 6)
        assert not fails and square.is_zero(), name


def test_bracket_routes_agree_small_pairs():
    for name in SMALL_PAIRS:
        l3 = get_l3(name)
        for key in iter_normalized_tuples(l3.basis, 2, False):
            a = l3.bracket2(l3.basis.unit(key[0]), l3.basis.unit(key[1]))
            b = so.bracket2_generated(l3, l3.basis.unit(key[0]), l3.basis.unit(key[1]))
            assert a == b, (name, key)
        for key in iter_normalized_tuples(l3.basis, 3, False):
            a = so.bracket3(l3, *[l3.basis.unit(nm) for nm in key])
            b = so.bracket3_generated(l3, *[l3.basis.unit(nm) for nm in key])
            assert a == b, (name, key)


def test_generating_relation_leibniz():
    # [X, w . Y]_2 = (rho_1(X) w) . Y + (-1)^(|w||X|) w . [X, Y]_2 for the
    # closed-formula bracket
    l3 = get_l3("sl3-cartan")
    rng = random.Random(5)
    names = l3.basis.names
    scalars = [nm for nm in so.scalar_basis(l3).names]
    for _ in range(40):
        x = l3.basis.unit(rng.choice(names))
        y = l3.basis.unit(rng.choice(names))
        w = so.scalar_basis(l3).unit(rng.choice(scalars))
        lhs = l3.bracket2(x, so.module_product(l3, w, y))
        wx = so.scalar_basis(l3).degree(list(w.coords)[0]) * l3.basis.degree(list(x.coords)[0])
        rhs = so.module_product(l3, so.anchor1(l3, x, w), y) + so.module_product(l3, w, l3.bracket2(x, y)).scale(
            -1 if wx % 2 else 1
        )
        assert lhs == rhs


def test_bracket_skew_symmetry():
    rng = random.Random(9)
    l3 = get_l3("sl3-cartan")
    names = l3.basis.names
    for _ in range(20):
        k2 = [rng.choice(names) for _ in range(2)]
        degs2 = [l3.basis.degree(nm) for nm in k2]
        base2 = l3.bracket2(*[l3.basis.unit(nm) for nm in k2])
        for sigma in permutations(range(2)):
            chi = koszul_chi(tuple(s + 1 for s in sigma), degs2)
            permuted = l3.bracket2(*[l3.basis.unit(k2[s]) for s in sigma])
            assert base2 == permuted.scale(chi)
        k3 = [rng.choice(names) for _ in range(3)]
        degs3 = [l3.basis.degree(nm) for nm in k3]
        base3 = so.bracket3(l3, *[l3.basis.unit(nm) for nm in k3])
        for sigma in permutations(range(3)):
            chi = koszul_chi(tuple(s + 1 for s in sigma), degs3)
            permuted = so.bracket3(l3, *[l3.basis.unit(k3[s]) for s in sigma])
            assert base3 == permuted.scale(chi), (k3, sigma)


def _complement_comparison(pair_name, new_names, new_vectors_of):
    """Check that the flat A-action agrees across two complement choices
    through the canonical identification of complements with the quotient."""
    pair = get_pair(pair_name)
    alg = pair.algebra
    vectors = [new_vectors_of(alg, nm) for nm in new_names]
    alg2 = change_basis(alg, new_names, vectors)
    pair2 = LiePair(alg2, list(pair.a_names))

    # coordinates of old basis vectors in the new basis
    cols = [[v.coords.get(nm, Fraction(0)) for v in vectors] for nm in alg.names]

    def to_new(elem):
        target = [elem.coords.get(nm, Fraction(0)) for nm in alg.names]
        coords = linalg.solve(cols, target)
        return GradedElement(alg2.basis, {new_names[i]: c for i, c in enumerate(coords) if c})

    def identify(elem):  # quotient identification: project along A onto the new complement
        return so.pr_b(pair2, to_new(elem))

    for a_nm in pair.a_names:
        for b_nm in pair.b_names:
            lhs = identify(so.bott(pair, alg.unit(a_nm), alg.unit(b_nm)))
            rhs = so.bott(pair2, so.pr_a(pair2, to_new(alg.unit(a_nm))), identify(alg.unit(b_nm)))
            assert lhs == rhs, (pair_name, a_nm, b_nm)


def test_bott_independent_of_complement():
    def sl2_vectors(alg, nm):
        if nm == "E":
            return alg.unit("e") + alg.unit("h")
        if nm == "F":
            return alg.unit("f") - alg.unit("h").scale(2)
        return alg.unit(nm)

    _complement_comparison("sl2", ["h", "E", "F"], sl2_vectors)

    def aff_vectors(alg, nm):
        if nm == "B":
            return alg.unit("b") + alg.unit("a").scale(3)
        return alg.unit(nm)

    _complement_comparison("aff1", ["a", "B"], aff_vectors)


def test_zero_dimensional_a_or_b():
    alg = get_pair("aff1").algebra
    # empty subalgebra: the form space is just the complement in degree 0
    pair0 = LiePair(alg, [])
    l30 = L3Pair(pair0)
    assert set(l30.basis.names) == {"a", "b"}
    st = l30.structure()
    assert st.bracket(1) is None
    assert st.bracket(2).eval_basis(("a", "b")) == l30.basis.unit("b")
    assert not jacobi_walk(st, range(1, 6), 6)[0]
    # full subalgebra: the form space is zero
    pair_full = LiePair(alg, ["a", "b"])
    l3f = L3Pair(pair_full)
    assert len(l3f.basis) == 0
    assert not jacobi_walk(l3f.structure(), range(1, 6), 6)[0]


def test_json_roundtrip_and_schema():
    for name in ALL_PAIRS:
        pair = get_pair(name)
        again = LiePair.from_json(pair.to_json())
        assert again.to_json() == pair.to_json()
        assert again.digest() == pair.digest()
    with pytest.raises(ValueError):
        LieAlgebra.from_json({"basis": ["a", "b"], "brackets": [{"left": "b", "right": "a", "out": {"b": "1"}}]})
    with pytest.raises(ValueError):
        LieAlgebra.from_json(
            {
                "basis": ["a", "b"],
                "brackets": [
                    {"left": "a", "right": "b", "out": {"b": "1"}},
                    {"left": "a", "right": "b", "out": {"b": "2"}},
                ],
            }
        )
    with pytest.raises((ValueError, KeyError)):
        LieAlgebra.from_json({"basis": ["a"], "brackets": [{"left": "a", "right": "c", "out": {}}]})


def test_reserved_names_rejected():
    for bad in ("", "1", "a^b", "a|b", "a b"):
        with pytest.raises(ValueError):
            LieAlgebra([bad], {})


def test_structure_table_degrees():
    for name in SMALL_PAIRS:
        st = get_l3(name).structure()
        for k, table in st.brackets.items():
            assert table.map_degree == 2 - k
            assert not table.is_symmetric


def test_scalar_differential_is_a_wedge_derivation():
    rng = random.Random(17)
    for name in ("sl2", "sl3-cartan", "sl3-borel-complement", "aff1"):
        l3 = get_l3(name)
        names = so.scalar_basis(l3).names
        for _ in range(25):
            w1 = so.scalar_basis(l3).unit(rng.choice(names))
            w2 = so.scalar_basis(l3).unit(rng.choice(names))
            d1 = so.scalar_basis(l3).degree(list(w1.coords)[0])
            lhs = so.d_scalar(l3, so.wedge(l3, w1, w2))
            rhs = so.wedge(l3, so.d_scalar(l3, w1), w2) + so.wedge(l3, w1, so.d_scalar(l3, w2)).scale(
                -1 if d1 % 2 else 1
            )
            assert lhs == rhs, (name, w1, w2)


def test_form_differential_is_a_module_derivation():
    rng = random.Random(19)
    for name in ("sl2", "sl3-cartan", "sl3-borel-complement"):
        l3 = get_l3(name)
        for _ in range(25):
            w = so.scalar_basis(l3).unit(rng.choice(so.scalar_basis(l3).names))
            x = l3.basis.unit(rng.choice(l3.basis.names))
            wdeg = so.scalar_basis(l3).degree(list(w.coords)[0])
            lhs = so.d_closed(l3, so.module_product(l3, w, x))
            rhs = so.module_product(l3, so.d_scalar(l3, w), x) + so.module_product(l3, w, so.d_closed(l3, x)).scale(
                -1 if wdeg % 2 else 1
            )
            assert lhs == rhs, (name, w, x)


def test_anchors_are_wedge_derivations():
    rng = random.Random(23)
    l3 = get_l3("sl3-cartan")
    names = l3.basis.names
    scalars = so.scalar_basis(l3).names
    for _ in range(30):
        x = l3.basis.unit(rng.choice(names))
        xdeg = l3.basis.degree(list(x.coords)[0])
        w1 = so.scalar_basis(l3).unit(rng.choice(scalars))
        w2 = so.scalar_basis(l3).unit(rng.choice(scalars))
        d1 = so.scalar_basis(l3).degree(list(w1.coords)[0])
        lhs = so.anchor1(l3, x, so.wedge(l3, w1, w2))
        rhs = so.wedge(l3, so.anchor1(l3, x, w1), w2) + so.wedge(l3, w1, so.anchor1(l3, x, w2)).scale(
            -1 if (xdeg * d1) % 2 else 1
        )
        assert lhs == rhs
        y = l3.basis.unit(rng.choice(names))
        ydeg = l3.basis.degree(list(y.coords)[0])
        deg2 = xdeg + ydeg - 1
        lhs2 = so.anchor2(l3, x, y, so.wedge(l3, w1, w2))
        rhs2 = so.wedge(l3, so.anchor2(l3, x, y, w1), w2) + so.wedge(l3, w1, so.anchor2(l3, x, y, w2)).scale(
            -1 if (deg2 * d1) % 2 else 1
        )
        assert lhs2 == rhs2


def test_pair_jacobi_vanishes_identically_above_cap():
    rng = random.Random(29)
    for name in ("sl2", "heisenberg"):
        st = get_l3(name).structure()
        for _ in range(10):
            key = tuple(rng.choice(st.space.names) for _ in range(6))
            assert jacobi_defect_basis(st, key).is_zero()


# the route identities a doubled stored entry shows up in: the pairs with no l2 or no l3 table have nothing to double there
ROUTES_OF_STORED_TABLES = {
    "sl2": ["ternary-routes"],
    "sl3-cartan": ["binary-routes", "ternary-routes"],
    "sl3-borel-complement": ["binary-routes"],
    "heisenberg": ["ternary-routes"],
    "aff1": [],
    "abelian:3": [],
}


@pytest.mark.parametrize("name", catalog.EXAMPLE_NAMES)
def test_route_check_reads_the_stored_tables(name):
    """After ``structure()``, doubling one stored l2 and one stored l3 entry fails the route check
    at exactly those keys, with the entry's old value as the defect (stored - generated), and
    ``bracket2`` returns the doubled l2 entry: both read the tables every other check reads."""
    l3 = L3Pair(catalog.make_pair(name))
    assert l3.route_defects()[0] == []
    brackets = l3.structure().brackets
    doubled = []
    for k, identity in ((2, "binary-routes"), (3, "ternary-routes")):
        if k in brackets:
            values = brackets[k].values
            key = next(iter(values))
            doubled.append((identity, list(key), values[key]))
            values[key] = values[key].scale(2)
    assert [identity for identity, _, _ in doubled] == ROUTES_OF_STORED_TABLES[name]
    records = l3.route_defects()[0]
    assert [(r["identity"], r["inputs"], r["defect"]) for r in records] == doubled
    for identity, key, old in doubled:
        if identity == "binary-routes":
            assert l3.bracket2(*[l3.basis.unit(nm) for nm in key]) == old.scale(2)


@pytest.mark.parametrize("name", ["sl3-cartan", "sl3-borel-complement"])
def test_the_derived_route_is_not_kept_after_the_route_check(name):
    """``route_defects`` keeps the derived route's bracket prefixes only while it runs: afterwards the
    pair holds what it held before, and a second check rebuilds the same records."""
    l3 = L3Pair(catalog.make_pair(name))
    l3.structure()
    held = dict(vars(l3))
    first = l3.route_defects()
    assert vars(l3).keys() == held.keys() and all(vars(l3)[k] is v for k, v in held.items())
    assert l3.route_defects() == first


def test_bracket2_third_route_tensor_formula():
    # a third, independent expression of the binary bracket on decomposable
    # generators: wedge against the dual action on each factor plus the
    # complement product
    for name in ("sl2", "sl3-cartan", "heisenberg"):
        l3 = get_l3(name)
        pair = l3.pair
        for n1 in l3.basis.names:
            K1, b1 = l3.decode[n1]
            for n2 in l3.basis.names:
                K2, b2 = l3.decode[n2]
                u = so.scalar_form(l3, K1)
                v = so.scalar_form(l3, K2)
                eb1 = pair.algebra.unit(b1)
                eb2 = pair.algebra.unit(b2)
                term1 = so.module_product(
                    l3, so.wedge(l3, u, so.eth_scalar(l3, eb1, v)), so.from_b_element(l3, eb2)
                )
                term2 = so.module_product(
                    l3, so.wedge(l3, so.eth_scalar(l3, eb2, u), v), so.from_b_element(l3, eb1)
                )
                term3 = so.module_product(
                    l3, so.wedge(l3, u, v), so.from_b_element(l3, so.bracket_b(pair, eb1, eb2))
                )
                expect = term1 - term2 + term3
                assert l3.bracket2(l3.basis.unit(n1), l3.basis.unit(n2)) == expect, (name, n1, n2)
