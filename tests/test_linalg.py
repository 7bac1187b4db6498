import random
from fractions import Fraction

import pytest

import linalg_oracle as dense
from l3pair import linalg


def test_rref_pivots():
    m = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
    red, pivots = dense.sparse_rref(m)
    assert pivots == [0, 1]
    assert linalg.rank(m) == 2


def test_nullspace_dimensions():
    m = [[1, 0, -1], [0, 1, 2]]
    ns = linalg.nullspace(m)
    assert len(ns) == 1
    v = ns[0]
    assert [sum(Fraction(a) * x for a, x in zip(row, v)) for row in m] == [0, 0]


def test_nullspace_of_empty_matrix():
    assert len(linalg.nullspace([], 3)) == 3


def test_solve_consistent_and_inconsistent():
    m = [[1, 1], [1, -1]]
    x = linalg.solve(m, [2, 0])
    assert x == [1, 1]
    assert linalg.solve([[1, 1], [2, 2]], [1, 3]) is None


def test_solve_underdetermined_picks_particular():
    m = [[1, 1, 0]]
    x = linalg.solve(m, [5])
    assert sum(x) == 5


def test_in_span():
    vecs = [[1, 0, 1], [0, 1, 1]]
    assert linalg.in_span(vecs, [2, 3, 5]) == [2, 3]
    assert linalg.in_span(vecs, [0, 0, 1]) is None
    assert linalg.in_span([], [0, 0]) == []
    assert linalg.in_span([], [1]) is None


def test_random_solve_consistency():
    rng = random.Random(2)
    for _ in range(50):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        m = [[Fraction(rng.randint(-4, 4)) for _ in range(ncols)] for _ in range(nrows)]
        x_true = [Fraction(rng.randint(-3, 3)) for _ in range(ncols)]
        b = [sum(row[j] * x_true[j] for j in range(ncols)) for row in m]
        x = linalg.solve(m, b)
        assert x is not None
        assert [sum(row[j] * x[j] for j in range(ncols)) for row in m] == b


def test_rank_nullity():
    rng = random.Random(9)
    for _ in range(50):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        m = [[Fraction(rng.randint(-3, 3)) for _ in range(ncols)] for _ in range(nrows)]
        assert linalg.rank(m) + len(linalg.nullspace(m)) == ncols


def test_independent_subset_scans_in_order():
    vecs = [[1, 0], [2, 0], [0, 1], [1, 1]]
    picked = linalg.independent_subset(vecs)
    assert picked == [0, 2]


# --- the sparse integer elimination against the dense Fraction one -------------

def _random_matrix(rng, nrows, ncols):
    """Sparse rational rows (thirds and fifths among integers), with zero and repeated rows mixed in."""
    values = [0] * 6 + [1, -1, 2, -3, Fraction(1, 3), Fraction(-2, 5), Fraction(7, 15)]
    rows = []
    while len(rows) < nrows:
        kind = rng.random()
        if kind < 0.1:
            rows.append([0] * ncols)
        elif kind < 0.25 and rows:
            rows.append([2 * x for x in rng.choice(rows)])
        else:
            rows.append([rng.choice(values) for _ in range(ncols)])
    return rows


def _all_fractions(rows) -> bool:
    return all(type(x) is Fraction for row in rows for x in row)


SHAPES = [(1, 1), (1, 6), (6, 1), (3, 8), (8, 3), (5, 5), (12, 4), (4, 12), (14, 10)]


@pytest.mark.parametrize("nrows,ncols", SHAPES)
def test_rref_matches_dense_elimination(nrows, ncols):
    rng = random.Random("rref-%d-%d" % (nrows, ncols))
    for _ in range(30):
        m = _random_matrix(rng, nrows, ncols)
        red, pivots = dense.sparse_rref(m)
        assert (red, pivots) == dense.rref(m)
        assert len(red) == nrows and _all_fractions(red)
        assert linalg.rank(m) == len(pivots)


@pytest.mark.parametrize("nrows,ncols", SHAPES)
def test_nullspace_solve_and_span_match_dense_elimination(nrows, ncols):
    rng = random.Random("solve-%d-%d" % (nrows, ncols))
    for _ in range(30):
        m = _random_matrix(rng, nrows, ncols)
        ns = linalg.nullspace(m, ncols)
        assert ns == dense.nullspace(m, ncols) and _all_fractions(ns)
        rhs = [rng.choice([0, 1, Fraction(-1, 3)]) for _ in range(nrows)]
        x = linalg.solve(m, rhs)
        assert x == dense.solve(m, rhs)
        if x is not None:
            assert _all_fractions([x])
        vectors = [list(col) for col in zip(*m)]  # the columns, as vectors of length nrows
        reachable = [[sum(Fraction(c) * v[i] for c, v in zip(ns_coeffs, vectors)) for i in range(nrows)]
                     for ns_coeffs in _random_matrix(rng, 3, ncols)]
        targets = reachable + [[rng.choice([0, 1, Fraction(2, 5)]) for _ in range(nrows)]]
        got = linalg.in_span_all(vectors, targets)
        assert got == dense.in_span_all(vectors, targets)
        assert all(c is not None for c in got[:3])
        assert _all_fractions([c for c in got if c is not None])


def test_sparse_rows_keep_their_exact_values():
    # rows with different denominators, each scaled to integers by its own lcm
    m = [[Fraction(1, 3), Fraction(1, 5), 0], [Fraction(2, 7), 0, Fraction(-1, 11)], [1, 1, 1]]
    assert dense.sparse_rref(m) == dense.rref(m)
    assert linalg.solve(m, [1, 2, 3]) == dense.solve(m, [1, 2, 3])


# --- one elimination per question ----------------------------------------------

def _random_vectors(rng, count, dim):
    """Vectors with zero, repeated and dependent ones mixed in: the rows of ``_random_matrix`` and
    sums of earlier vectors."""
    vectors = _random_matrix(rng, count, dim)
    for i in range(2, count, 3):
        vectors[i] = [a - b for a, b in zip(vectors[i - 1], vectors[i - 2])]
    return vectors


@pytest.mark.parametrize("nrows,ncols", SHAPES)
def test_independent_subsets_match_the_greedy_loop(nrows, ncols):
    rng = random.Random("pick-%d-%d" % (nrows, ncols))
    for _ in range(30):
        vectors = _random_vectors(rng, nrows, ncols)
        assert linalg.independent_subset(vectors) == dense.independent_subset(vectors)


def test_empty_inputs_match_the_reference():
    for vectors in ([], [[]], [[], []], [[0, 0]], [[0, 0], [0, 0]]):
        assert linalg.independent_subset(vectors) == dense.independent_subset(vectors) == []
    assert linalg.in_span_all([], []) == [] and linalg.in_span_all([[1, 0]], []) == []
    assert linalg.in_span_all([], [[0, 0], [0, 1]]) == dense.in_span_all([], [[0, 0], [0, 1]]) == [[], None]
    assert linalg.in_span_all([[], []], [[]]) == [[0, 0]]
    assert linalg.solve([], []) == dense.solve([], []) == []


def test_each_question_is_one_elimination(monkeypatch):
    calls = []
    reduce = linalg._reduce
    monkeypatch.setattr(linalg, "_reduce", lambda rows: calls.append(1) or reduce(rows))
    rng = random.Random("count")
    m = _random_vectors(rng, 8, 5)
    questions = [
        lambda: linalg.independent_subset(m),
        lambda: linalg.solve(m, [1, 0, 2, 0, 0, 1, 0, 3]),
        lambda: linalg.in_span_all(m, [[1, 0, 0, 0, 0], m[0], m[1]]),
        lambda: linalg.in_span(m, m[2]),
    ]
    for question in questions:
        calls.clear()
        question()
        assert len(calls) == 1
    # the greedy loop the pivot columns replace ranks the base, then once per candidate
    ranks = []
    rref = dense.rref
    monkeypatch.setattr(dense, "rref", lambda rows: ranks.append(1) or rref(rows))
    dense.extend_basis(m[:3], m[3:])
    assert len(ranks) == len(m[3:]) + 1
