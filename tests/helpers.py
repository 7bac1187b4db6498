"""Shared builders for randomized tests: random tables and copies of tables
to edit (``copy_table``), the Lie pairs drawn beyond the catalog, their
re-splittings (through ``change_basis``), and matrix Lie algebras (sl_n
and sp4) with their Cartan and Borel subalgebras; the torus of derivations
diagonal in a pair's basis and the weights it puts on the forms;
``run_report_text``, the one runner of a pinned report; the bounded caches
of catalog pairs and their form engines (``get_pair``, ``get_l3``); the
two kernel walks, each in a kernel of its own (``jacobi_walk``,
``theta_gamma``); and the route check's derived brackets as elements of V
(``derived_brackets``)."""

import contextlib
import io
import json
import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from pathlib import Path

from l3pair import catalog, linalg
from l3pair.cli import main
from l3pair.deraction import ThetaGamma
from l3pair.graded import MultiTable, ShuffleInsertion, shift_transport_sign
from l3pair.lie import LieAlgebra, LiePair
from l3pair.liepair import L3Pair
from l3pair.linfty import iter_normalized_tuples, jacobi_square
from l3pair.vectors import GradedElement

CACHE_SIZE = 16  # pairs each of ``get_pair`` and ``get_l3`` keeps: the shipped ones and a few abelian:N


@lru_cache(maxsize=CACHE_SIZE)
def get_pair(name: str) -> LiePair:
    """The catalog pair of that name, built once per test process."""
    return catalog.make_pair(name)


@lru_cache(maxsize=CACHE_SIZE)
def get_l3(name: str) -> L3Pair:
    """The form engine of the catalog pair of that name, built once per test process."""
    return L3Pair(get_pair(name))


def jacobi_walk(L, arities, max_arity: int, limit: int = 16) -> tuple:
    """``jacobi_square`` of a structure in a kernel of its own: (Jacobi failures, Q o Q to max_arity)."""
    return jacobi_square(ShuffleInsertion(L.space), L, arities, max_arity, limit)


def theta_gamma(action) -> ThetaGamma:
    """The ``ThetaGamma`` of an action, walking in a kernel of its own."""
    return ThetaGamma(action, ShuffleInsertion(action.l3.basis))


def derived_brackets(l3):
    """key -> l_n on the unit forms of the key as a ``GradedElement`` of V, the value the route check compares:
    the derived bracket Phi_n of the Chevalley-Eilenberg field (``L3Pair._derived``) through ``shift_transport_sign``."""
    derived, names, degree = l3._derived(l3._q_field()), l3.basis.names, l3.basis.degree

    def value(key) -> GradedElement:
        s = shift_transport_sign(len(key), [degree(nm) for nm in key])
        return GradedElement(l3.basis, {names[i]: s * c for i, c in derived(key).items()})

    return value


def copy_table(table: MultiTable) -> MultiTable:
    """A table of the same shape holding the same entries, to edit without touching the original."""
    out = MultiTable(table.space, table.arity, table.symmetry, table.map_degree)
    out.values = dict(table.values)
    return out


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
        for (left, right), out in alg.lie.items():
            if alg.basis.index(left) < alg.basis.index(right):
                brackets[(left, right)] = dict(out)
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


def change_basis(alg: LieAlgebra, new_names, new_vectors, validate: bool = True) -> LieAlgebra:
    """The algebra rewritten in a new basis given by element coordinates."""
    n = len(alg.names)
    if len(new_names) != n or len(new_vectors) != n:
        raise ValueError("need exactly %d new basis vectors" % n)
    cols = [[v.coords.get(nm, Fraction(0)) for v in new_vectors] for nm in alg.names]
    brackets = {}
    for i in range(n):
        for j in range(i + 1, n):
            w = alg.bracket(new_vectors[i], new_vectors[j])
            target = [w.coords.get(nm, Fraction(0)) for nm in alg.names]
            coords = linalg.solve(cols, target)
            if coords is None:
                raise ValueError("new vectors do not span the algebra")
            out = {new_names[k]: c for k, c in enumerate(coords) if c}
            if out:
                brackets[(new_names[i], new_names[j])] = out
    return LieAlgebra(new_names, brackets, validate=validate)


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
    return LiePair(change_basis(alg, alg.names, vectors), pair.a_names)


DRAW_ALGEBRAS = dict(ALGEBRAS, sl3=lambda: catalog.make_pair("sl3-cartan").algebra)


def drawn_pairs() -> dict:
    """{label: pair}: two coordinate subalgebras of at most two letters per algebra of
    ``DRAW_ALGEBRAS`` (derandomized by label), and their re-splittings (label + " resplit")."""
    out = {}
    for label, make in sorted(DRAW_ALGEBRAS.items()):
        alg = make()
        rng = random.Random(label)
        found = 0
        while found < 2:
            a_names = coordinate_subalgebra(alg, rng.sample(alg.names, rng.randint(1, 2)))
            name = "%s %s" % (label, "^".join(a_names))
            if len(a_names) > 2 or len(a_names) == len(alg.names) or name in out:
                continue
            pair = LiePair(alg, a_names)
            out[name] = pair
            out[name + " resplit"] = resplit(pair, rng)
            found += 1
    return out


# --- the diagonal torus ----------------------------------------------------------

def diagonal_torus(alg: LieAlgebra) -> list:
    """A basis, each {name: weight}, of the derivations of L diagonal in its basis: D x = w_x x is one
    exactly when w_x + w_y - w_z = 0 wherever c_xy^z != 0, so the weights are an exact nullspace.
    Such a D keeps the span of any set of basis vectors, so on a pair it keeps A and B."""
    index, rows = alg.basis.index, []
    for (x, y), out in alg.lie.items():
        if index(x) < index(y):
            for z in out:
                row = [0] * len(alg.names)
                row[index(x)] += 1
                row[index(y)] += 1
                row[index(z)] -= 1
                rows.append(row)
    return [dict(zip(alg.names, w)) for w in linalg.nullspace(rows, len(alg.names))]


def form_weights(l3, w: dict) -> dict:
    """{form name: weight} under the weight w of a diagonal derivation: w(b) - sum of w(a) over a in K for (K | b)."""
    return {nm: w[b] - sum(w[a] for a in K) for nm, (K, b) in l3.decode.items()}


def weight_defects(l3, torus, brackets=None) -> tuple:
    """(defects, checked) of the form tables ``brackets`` {arity: table} (default: the stored d, l2 and l3)
    under each weight of ``torus``: a diagonal derivation acts strictly (kappa = 0, mu2 = 0) and every
    bracket has weight 0, so each output symbol of an entry must weigh the sum of its key's weights.
    A defect is (torus index, arity, key, output symbol); ``checked`` counts the outputs compared,
    once per weight."""
    brackets = l3.structure().brackets if brackets is None else brackets
    defects, checked = [], 0
    for t, w in enumerate(torus):
        weight = form_weights(l3, w)
        for n, table in sorted(brackets.items()):
            for key, val in sorted(table.values.items()):
                total = sum(weight[nm] for nm in key)
                checked += len(val.coords)
                defects.extend((t, n, key, s) for s in val.coords if weight[s] != total)
    return defects, checked


# --- matrix Lie algebras past the catalog ---------------------------------------

def _matrix(n, entries):
    """The n x n matrix with the given {(row, column): value} entries and zeros elsewhere."""
    return [[Fraction(entries.get((i, j), 0)) for j in range(n)] for i in range(n)]


def _commutator(x, y):
    n = len(x)
    xy = [[sum(x[i][k] * y[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    yx = [[sum(y[i][k] * x[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return [[p - q for p, q in zip(ra, rb)] for ra, rb in zip(xy, yx)]


def matrix_algebra(basis: dict) -> LieAlgebra:
    """The span of named exact square matrices, its structure constants solved for, not typed in."""
    names = list(basis)
    flat = {nm: [v for row in basis[nm] for v in row] for nm in names}
    cols = [[flat[nm][k] for nm in names] for k in range(len(flat[names[0]]))]
    brackets = {}
    for x, y in combinations(names, 2):
        br = _commutator(basis[x], basis[y])
        coeffs = linalg.solve(cols, [v for row in br for v in row])
        if coeffs is None:
            raise ValueError("[%s, %s] leaves the span of the matrices" % (x, y))
        out = {nm: c for nm, c in zip(names, coeffs) if c}
        if out:
            brackets[(x, y)] = out
    return LieAlgebra(names, brackets)


def sl_algebra(n: int) -> LieAlgebra:
    """sl_n on h_i = E_ii - E_(i+1)(i+1) and the matrix units e_ij, i != j (names need n < 10)."""
    basis = {"h%d" % i: _matrix(n, {(i - 1, i - 1): 1, (i, i): -1}) for i in range(1, n)}
    units = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    for i, j in units + [(j, i) for i, j in units]:
        basis["e%d%d" % (i, j)] = _matrix(n, {(i - 1, j - 1): 1})
    return matrix_algebra(basis)


def sl_subalgebras(n: int) -> dict:
    """{"cartan": the diagonal h_i, "borel": the h_i and the upper-triangular e_ij} of ``sl_algebra(n)``."""
    cartan = ["h%d" % i for i in range(1, n)]
    upper = ["e%d%d" % (i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return {"cartan": cartan, "borel": cartan + upper}


def sp4_algebra() -> LieAlgebra:
    """sp4 on 4 x 4 matrices: h1, h2 diagonal, a12 and the b's raising, a21 and the c's lowering."""
    entries = {
        "h1": {(0, 0): 1, (2, 2): -1},
        "h2": {(1, 1): 1, (3, 3): -1},
        "a12": {(0, 1): 1, (3, 2): -1},
        "a21": {(1, 0): 1, (2, 3): -1},
        "b11": {(0, 2): 1},
        "b22": {(1, 3): 1},
        "b12": {(0, 3): 1, (1, 2): 1},
        "c11": {(2, 0): 1},
        "c22": {(3, 1): 1},
        "c12": {(2, 1): 1, (3, 0): 1},
    }
    return matrix_algebra({nm: _matrix(4, e) for nm, e in entries.items()})


SP4_SUBALGEBRAS = {"cartan": ["h1", "h2"], "borel": ["h1", "h2", "a12", "b11", "b22", "b12"]}


def scale_pair(name: str) -> LiePair:
    """The pair "sl<n>-cartan", "sl<n>-borel", "sp4-cartan" or "sp4-borel"; write one to a pair file with

        PYTHONPATH=src:tests python -c "import json, helpers; print(json.dumps(helpers.scale_pair('sl4-cartan').to_json()))"
    """
    algebra, kind = name.split("-")
    if algebra == "sp4":
        return LiePair(sp4_algebra(), SP4_SUBALGEBRAS[kind])
    n = int(algebra[2:])
    return LiePair(sl_algebra(n), sl_subalgebras(n)[kind])


def rescaled(alg: LieAlgebra) -> LieAlgebra:
    """The algebra on its basis vectors scaled by 1/2, 1/3, ..., keeping their names: constants such as 2/3."""
    vectors = [GradedElement(alg.basis, {nm: Fraction(1, i + 2)}) for i, nm in enumerate(alg.names)]
    return change_basis(alg, alg.names, vectors)


# the one pair past the catalog whose reports are pinned: no catalog pair has a non-integral form table
RESCALED = "sl3-rescaled"


def report_pair(name: str) -> LiePair:
    """A catalog pair by name, or ``RESCALED``: sl3-cartan on a ``rescaled`` basis of L, whose
    d, l2 and l3 have least common denominators 6, 2520 and 7560."""
    if name == RESCALED:
        pair = catalog.make_pair("sl3-cartan")
        return LiePair(rescaled(pair.algebra), pair.a_names)
    return get_pair(name)


def run_report_text(pair: str, argv) -> tuple:
    """(exit status, stdout, stderr) of one command on ``report_pair(pair)``, run in the current
    directory; every command but ``example`` reads the pair from the ``pair.json`` written there."""
    Path("pair.json").write_text(json.dumps(report_pair(pair).to_json()))
    if argv[0] != "example":
        argv = argv[:2] + ["pair.json"] + argv[2:]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()
