"""Shared builders for randomized tests: random tables, the Lie pairs drawn
beyond the catalog, their re-splittings, and the rank-2 symplectic algebra."""

from fractions import Fraction
from itertools import combinations

from l3pair import catalog, linalg
from l3pair.graded import GradedElement, MultiTable
from l3pair.liepair import LieAlgebra, LiePair
from l3pair.linfty import iter_normalized_tuples


def random_table(rng, V, arity, symmetry, map_degree, density=0.5):
    table = MultiTable(V, arity, symmetry, map_degree)
    for key in iter_normalized_tuples(V, arity, symmetry == "symmetric"):
        in_deg = sum(V.degree(nm) for nm in key)
        coords = {}
        for nm, d in V.symbols:
            if d == in_deg + map_degree and rng.random() < density:
                coords[nm] = Fraction(rng.randint(-3, 3))
        val = GradedElement(V, coords)
        if not val.is_zero():
            table.set_value(key, val)
    return table


# --- Lie pairs beyond the catalog ----------------------------------------------

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


def resplit(pair: LiePair, rng) -> LiePair:
    """The same subalgebra with each complement vector b replaced by b + phi(b),
    phi: B -> A a random map with entries in -2..2, the new vectors keeping the old names.

    L/A and its A-action do not change, so neither does the differential; beta,
    eth and pr_B[ , ] pick up terms with several letters and coefficients
    other than 1.
    """
    alg = pair.algebra
    vectors = []
    for nm in alg.names:
        coords = {nm: Fraction(1)}
        if nm in pair.b_names:
            coords.update({a: Fraction(rng.randint(-2, 2)) for a in pair.a_names})
        vectors.append(GradedElement(alg.basis, coords))
    return LiePair(alg.change_basis(alg.names, vectors), pair.a_names)


# --- the rank-2 symplectic algebra ---------------------------------------------

def _E(i, j):
    m = [[Fraction(0)] * 4 for _ in range(4)]
    m[i][j] = Fraction(1)
    return m


def _add(*ms):
    out = [[Fraction(0)] * 4 for _ in range(4)]
    for m in ms:
        for i in range(4):
            for j in range(4):
                out[i][j] += m[i][j]
    return out


def _neg(m):
    return [[-x for x in row] for row in m]


def _bracket(a, b):
    def mul(x, y):
        return [[sum(x[i][k] * y[k][j] for k in range(4)) for j in range(4)] for i in range(4)]

    ab = mul(a, b)
    ba = mul(b, a)
    return [[p - q for p, q in zip(ra, rb)] for ra, rb in zip(ab, ba)]


def sp4_algebra() -> LieAlgebra:
    """sp4 from exact 4x4 matrices, its structure constants solved for, not typed in."""
    basis = {
        "h1": _add(_E(0, 0), _neg(_E(2, 2))),
        "h2": _add(_E(1, 1), _neg(_E(3, 3))),
        "a12": _add(_E(0, 1), _neg(_E(3, 2))),
        "a21": _add(_E(1, 0), _neg(_E(2, 3))),
        "b11": _E(0, 2),
        "b22": _E(1, 3),
        "b12": _add(_E(0, 3), _E(1, 2)),
        "c11": _E(2, 0),
        "c22": _E(3, 1),
        "c12": _add(_E(2, 1), _E(3, 0)),
    }
    names = list(basis)
    flat = {nm: [basis[nm][i][j] for i in range(4) for j in range(4)] for nm in names}
    cols = [[flat[nm][k] for nm in names] for k in range(16)]
    brackets = {}
    for x, y in combinations(names, 2):
        br = _bracket(basis[x], basis[y])
        coeffs = linalg.solve(cols, [br[i][j] for i in range(4) for j in range(4)])
        assert coeffs is not None  # sp4 closes under the matrix bracket
        out = {nm: c for nm, c in zip(names, coeffs) if c}
        if out:
            brackets[(x, y)] = out
    return LieAlgebra(names, brackets)
