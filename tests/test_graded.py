import random
from fractions import Fraction

import pytest

from l3pair.graded import MultiTable, shift_table
from l3pair.linfty import iter_normalized_tuples
from l3pair.vectors import GradedBasis, GradedElement
from gauge_oracle import linear_combination
from shuffle_oracle import insert_items, koszul_chi, koszul_epsilon


def basis4():
    return GradedBasis([("a", 0), ("b", 0), ("x", 1), ("y", 1)])


def test_element_arith_examples():
    V = basis4()
    e = V.unit("a")
    f = V.unit("b")
    assert e + f.scale(0) == e
    assert (e + e.scale(-1)).is_zero()
    half = e.scale(Fraction(1, 2))
    assert half + half == e


def test_space_mismatch_rejected():
    V = basis4()
    W = GradedBasis([("a", 0)])
    with pytest.raises(ValueError):
        V.unit("a") + W.unit("a")


def test_degree_of_inhomogeneous_raises():
    V = basis4()
    v = V.unit("a") + V.unit("x")
    with pytest.raises(ValueError):
        v.degree()
    assert V.zero().degree() is None


def test_evaluate_skew_swap_even():
    V = basis4()
    table = MultiTable(V, 2, "skew", 0)
    table.set_value(("a", "b"), V.unit("a"))
    # both arguments have even degree: the swap costs a sign
    assert table.eval_basis(("b", "a")) == -V.unit("a")
    assert table.evaluate([V.zero(), V.unit("a")]).is_zero()


def test_evaluate_symmetric_diagonal():
    V = GradedBasis([("u", 0), ("w", 1)])
    table = MultiTable(V, 2, "symmetric", 1)
    table.set_value(("u", "u"), V.unit("w").scale(1))
    assert table.eval_basis(("u", "u")) == V.unit("w")
    # odd repeated letters vanish in a symmetric word
    t2 = MultiTable(V, 2, "symmetric", 1)
    assert t2.eval_basis(("w", "w")).is_zero()
    with pytest.raises(ValueError):
        t2.set_value(("w", "w"), V.unit("u"))


def test_skew_repeated_even_vanishes():
    V = basis4()
    table = MultiTable(V, 2, "skew", 0)
    assert table.eval_basis(("a", "a")).is_zero()
    with pytest.raises(ValueError):
        table.set_value(("a", "a"), V.unit("b"))


def test_degree_homogeneity_enforced():
    V = basis4()
    table = MultiTable(V, 2, "skew", 0)
    with pytest.raises(ValueError):
        table.set_value(("a", "b"), V.unit("x"))  # degree 1 output breaks degree 0


from helpers import random_table


def test_evaluate_multilinear():
    rng = random.Random(7)
    V = basis4()
    table = random_table(rng, V, 2, "skew", 0)
    for _ in range(50):
        def rand_elem():
            return GradedElement(
                V, {nm: Fraction(rng.randint(-2, 2)) for nm, _ in V.symbols}
            )

        a, b, c = rand_elem(), rand_elem(), rand_elem()
        s = Fraction(rng.randint(-3, 3))
        lhs = table.evaluate([a + b.scale(s), c])
        rhs = table.evaluate([a, c]) + table.evaluate([b, c]).scale(s)
        assert lhs == rhs


def test_permutation_consistency():
    rng = random.Random(13)
    V = GradedBasis([("a", 0), ("x", 1), ("y", 1), ("c", 2)])
    skew = random_table(rng, V, 3, "skew", -1)
    sym = random_table(rng, V, 3, "symmetric", 1)
    names = V.names
    from itertools import permutations, product

    for args in product(names, repeat=3):
        degs = [V.degree(nm) for nm in args]
        base_skew = skew.eval_basis(args)
        base_sym = sym.eval_basis(args)
        for sigma in permutations(range(3)):
            images = tuple(s + 1 for s in sigma)
            permuted = tuple(args[s] for s in sigma)
            chi = koszul_chi(images, degs)
            eps = koszul_epsilon(images, degs)
            # T(args) = chi * T(args permuted by sigma)
            assert base_skew == skew.eval_basis(permuted).scale(chi)
            assert base_sym == sym.eval_basis(permuted).scale(eps)


def test_degree_homogeneity_of_output():
    rng = random.Random(19)
    V = GradedBasis([("a", 0), ("x", 1), ("y", 1), ("c", 2), ("d", 3)])
    table = random_table(rng, V, 2, "skew", 1)
    for key in iter_normalized_tuples(V, 2, False):
        out = table.eval_basis(key)
        if not out.is_zero():
            assert out.degree() == sum(V.degree(nm) for nm in key) + 1


def test_shift_table_unary_example():
    # the differential d (skew, degree 1) transports to x~ |-> -(d x)[1]
    V = GradedBasis([("p", 0), ("q", 1)])
    d = MultiTable(V, 1, "skew", 1)
    d.set_value(("p",), V.unit("q").scale(3))
    shifted = shift_table(d)
    assert shifted.map_degree == 1 and shifted.is_symmetric
    assert shifted.values[("p",)].coords == {"q": Fraction(-3)}


def test_shift_table_binary_example():
    # arity 2 on degree-0 entries picks up the sign -(-1)^(|x1|) = -1
    V = GradedBasis([("p", 0), ("q", 0), ("r", 0)])
    b2 = MultiTable(V, 2, "skew", 0)
    b2.set_value(("p", "q"), V.unit("r"))
    shifted = shift_table(b2)
    assert shifted.values[("p", "q")].coords == {"r": Fraction(-1)}


def test_shift_table_roundtrip_random():
    """shift_table(shift_table(t)) == t from either side: skew over V through V[1], and
    symmetric over V[1] through V."""
    rng = random.Random(23)
    V = GradedBasis([("a", 0), ("x", 1), ("y", 1), ("c", 2)])
    for arity in (1, 2, 3):
        table = random_table(rng, V, arity, "skew", 2 - arity)
        shifted = shift_table(table)
        assert shifted.space == V.shifted(1) and shifted.is_symmetric
        assert shift_table(shifted) == table
        sym = random_table(rng, V.shifted(1), arity, "symmetric", 1)
        assert shift_table(sym).space == V and shift_table(shift_table(sym)) == sym


def test_shift_table_direction_validation():
    """The direction comes from the table: a symmetric table over V and a skew one over V[1]
    have no transport, nor has any table over V[2]."""
    V = basis4()
    with pytest.raises(ValueError):
        shift_table(MultiTable(V, 2, "symmetric", 0))
    with pytest.raises(ValueError):
        shift_table(MultiTable(V.shifted(1), 2, "skew", 0))
    with pytest.raises(ValueError):
        shift_table(MultiTable(V.shifted(2), 2, "symmetric", 1))


def test_shifted_basis_contract():
    """A shifted basis is a GradedBasis that records its shift: equal and equally hashed when
    symbols and shift agree, never equal to an unshifted basis with the same degrees."""
    V = basis4()
    W = V.shifted(1)
    assert isinstance(W, GradedBasis) and W == V.shifted(1) and hash(W) == hash(V.shifted(1))
    assert W.shift == 1 and W.underlying is V and V.shift == 0 and V.underlying is None
    assert W.symbols == tuple((nm, d - 1) for nm, d in V.symbols)
    flat = GradedBasis(W.symbols)
    assert flat != W and W != flat and flat.symbols == W.symbols
    assert W.shifted(1) == V.shifted(2) and W.shifted(1).underlying is V and W.shifted(1).shift == 2
    assert V.shifted(0) is V and W.shifted(-1) is V and W != V
    assert W.unit(V.names[0]).space == W
    with pytest.raises(ValueError):
        W.unit("nope")
    assert repr(W) == "GradedBasis(%r).shifted(1)" % (V.symbols,)


def test_linear_combination_has_the_given_shape():
    V = GradedBasis([("u", 0), ("w", 1)])
    t = MultiTable(V, 1, "skew", 1)
    t.set_value(("u",), V.unit("w"))
    empty = linear_combination([], V, 2, "skew", -1)
    assert empty.is_zero() and (empty.space, empty.arity, empty.symmetry, empty.map_degree) == (V, 2, "skew", -1)
    assert linear_combination([(3, t), (-3, t)], V, 1, "skew", 1).is_zero()
    twice = linear_combination([(2, t), (0, t), (5, None)], V, 1, "skew", 1)
    assert twice.values == {("u",): V.unit("w").scale(2)}
    with pytest.raises(ValueError):
        linear_combination([(1, t)], V, 1, "symmetric", 1)
    with pytest.raises(ValueError):
        linear_combination([(1, t)], V, 1, "skew", 0)


def test_insert_items_matches_eval_basis():
    rng = random.Random(29)
    V = GradedBasis([("a", 0), ("x", 1), ("y", 1), ("c", 2)])
    for symmetry in ("skew", "symmetric"):
        table = random_table(rng, V, 3, symmetry, 0)
        for rest in iter_normalized_tuples(V, 2, symmetry == "symmetric"):
            for sym_nm in V.names:
                via_eval = table.eval_basis((sym_nm,) + rest)
                items = insert_items(table, sym_nm, rest)
                got = GradedElement(V, dict(items) if items else {})
                assert got == via_eval


def test_shifted_basis_degrees():
    V = basis4()
    S = V.shifted(1)
    assert S.degree("a") == -1 and S.degree("x") == 0
    assert S.parity("a") == 1 and S.parity("x") == 0
    assert V.shifted(2).degree("x") == -1
    assert S.underlying.degree("a") == 0


def test_arity_and_space_validation():
    V = basis4()
    W = GradedBasis([("a", 0)])
    table = MultiTable(V, 2, "skew", 0)
    with pytest.raises(ValueError):
        table.evaluate([V.unit("a")])
    with pytest.raises(ValueError):
        table.evaluate([V.unit("a"), W.unit("a")])
    with pytest.raises(ValueError):
        table.eval_basis(("a",))
    with pytest.raises(ValueError):
        MultiTable(V, 2, "sideways", 0)
    with pytest.raises(ValueError):
        GradedElement(V, {"nope": 1})


def test_equal_elements_hash_equal_across_space_views():
    V = basis4()
    a = V.shifted(1).unit("x")
    b = V.shifted(1).unit("x")
    assert a.space is not b.space
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert len({V.unit("x"), basis4().unit("x")}) == 1


def test_element_json_writes_rationals_and_each_other_coordinate_in_its_own_form():
    """``vectors`` names no coefficient ring: its JSON writes a rational as its string, in basis order, and a
    truncated-polynomial coordinate is written by the ring itself, as its ``to_json()``."""
    from ring_oracle import TruncatedPoly

    V = basis4()
    elem = GradedElement(V, {"y": Fraction(1, 2), "b": Fraction(-3, 4), "a": 2})
    assert elem.to_json() == {"a": "2", "b": "-3/4", "y": "1/2"}
    assert list(elem.to_json()) == ["a", "b", "y"]
    poly = GradedElement(V, {"y": TruncatedPoly(2, [0, Fraction(1, 2)]), "a": TruncatedPoly(2, [0, 0, -1])})
    assert {nm: c.to_json() for nm, c in poly.coords.items()} == {
        "a": {"order": 2, "coeffs": ["0", "0", "-1"]}, "y": {"order": 2, "coeffs": ["0", "1/2", "0"]}}


def test_multilinear_arity_zero_zero_argument_and_poly_coefficients():
    from l3pair.vectors import multilinear
    from ring_oracle import TruncatedPoly

    V = basis4()
    const = MultiTable(V, 0, "skew", 1)
    const.set_value((), V.unit("x").scale(3))
    assert const.evaluate([]) == V.unit("x").scale(3)
    assert MultiTable(V, 0, "skew", 1).evaluate([]).is_zero()
    assert multilinear(V, lambda syms: V.unit("y"), []) == V.unit("y")
    calls = []
    assert multilinear(V, lambda syms: calls.append(syms) or V.unit("a"), [V.unit("x"), V.zero()]).is_zero()
    assert calls == []
    t = TruncatedPoly(3, [0, 1])
    table = MultiTable(V, 2, "skew", 1)
    table.set_value(("a", "b"), V.unit("x"))
    got = table.evaluate([V.unit("a").scale(t), V.unit("b").scale(t) + V.unit("a").scale(t)])
    assert got == V.unit("x").scale(t * t)
    # t^2 * t^2 vanishes at order 3: the product is skipped, not stored as a zero
    assert table.evaluate([V.unit("a").scale(t * t), V.unit("b").scale(t * t)]).is_zero()


def test_multilinear_agrees_with_the_symbol_loop():
    from itertools import product

    from l3pair.vectors import multilinear

    rng = random.Random(17)
    V = basis4()
    for arity in (1, 2, 3):
        table = random_table(rng, V, arity, rng.choice(["skew", "symmetric"]), rng.choice([0, 1]))
        for _ in range(10):
            args = [
                GradedElement(V, {nm: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for nm in V.names if rng.random() < 0.6})
                for _ in range(arity)
            ]
            expect = V.zero()
            for combo in product(*[list(a.coords.items()) for a in args]):
                coeff = Fraction(1)
                for _, c in combo:
                    coeff *= c
                expect = expect + table.eval_basis(tuple(nm for nm, _ in combo)).scale(coeff)
            assert multilinear(V, table.eval_basis, args) == expect
            assert table.evaluate(args) == expect
