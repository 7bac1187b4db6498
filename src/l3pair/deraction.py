"""The derivation algebra of a Lie algebra and its action on the form brackets.

``derivations`` computes a basis of all operators with delta[u,v] =
[delta u, v] + [u, delta v] by exact kernel extraction, each held as its
matrix in rows shaped like those of ``LieAlgebra.lie``: ``ad`` sums rows of
``lie`` and the commutator is a matrix product.  Such an operator acts on
the B-valued A-forms of a pair through three maps:

* a curvature term  kappa(delta) = -(pr_B . delta)|_A, a degree-1 form,
* a degree-0 operator  delta |> X  on forms,
* a degree -1 pairing  delta |> (X, Y).

``ActionMaps`` tabulates all three from symbols through ``graded.tabulate``,
as ``liepair`` does the brackets: pr_A delta and pr_B delta are read once per
derivation as dicts on the pair's letter bits and complement ranks
(``_projections``), kappa is -pr_B delta on the A-names, and each shuffle
sum is a loop over the letters of one form's bitmask word
(``L3Pair._contract``), with pr_A delta in the place of beta and eth.

Two independent verifications of the action axioms are provided.
``check_action_axioms`` sweeps the bracket- and commutator-compatibility
equations of the maps on V; ``check_theta_gamma`` transports them to one
coderivation psi_h = gamma_h^# + theta_h of the full shifted coalgebra per
derivation and checks [Q, psi_h] = 0 and psi_[h,h'] = [psi_h, psi_h'] on V[1].
The decalage keeps every key, so both read one walk, ``ThetaGamma.walk``
(``action_walk`` in the kernel it is given); their tables, transport and
merge signs and D stay per side.  One reports clean iff the other does.

``ExtendedStructure`` names the codifferential on the direct sum of the derivation
algebra (in degree 0) and the form space by its parts: Q, psi_r under the
letter der_r, and the derivation bracket, the one table it builds.  No entry
is copied into the sum basis, and its square is never composed:
``extended_square`` formats it from the theta/gamma composites
(``ThetaGamma.square``), Q o Q and the Jacobi identity of the derivation
bracket, so it restates those identities and is not an independent check.
``CohomologyModel`` computes the cohomology of the differential with its
induced bracket, on which the kernel of kappa acts by derivations.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, partial
from itertools import combinations

from . import linalg
from .graded import MultiTable, ShuffleInsertion, shift_table, tabulate
from .liepair import L3Pair
from .linfty import Coderivation, compose, insertion_sums, iter_normalized_tuples, square_defects
from .scalars import format_rational
from .vectors import GradedBasis, GradedElement, multilinear


class Derivation:
    """Linear operator on a Lie algebra, held as its matrix: ``images[x]`` is {y: c}, the coefficient
    of y in delta(x), for every basis name x, in the shape of a row of ``LieAlgebra.lie``; zero
    coefficients are dropped and the others kept as given (rationals, or ring elements)."""

    def __init__(self, algebra, images: dict):
        self.algebra = algebra
        basis = algebra.basis
        for x, row in images.items():
            if x not in basis or any(y not in basis for y in row):
                raise ValueError("image of %r lives outside the basis of L" % (x,))
        self.images = {x: {y: c for y, c in images.get(x, {}).items() if c} for x in algebra.names}

    def commutator(self, other: "Derivation") -> "Derivation":
        """self o other - other o self, the product of the two matrices taken both ways."""
        rows = {}
        for x in self.algebra.names:
            acc = rows[x] = {}
            for y, c in other.images[x].items():
                for z, d in self.images[y].items():
                    acc[z] = acc.get(z, 0) + c * d
            for y, c in self.images[x].items():
                for z, d in other.images[y].items():
                    acc[z] = acc.get(z, 0) - c * d
        return Derivation(self.algebra, rows)

    def __eq__(self, other):
        return (
            isinstance(other, Derivation)
            and self.algebra is other.algebra
            and self.images == other.images
        )

    def to_vector(self):
        """Flat coordinate vector (output index major) for linear algebra."""
        names = self.algebra.names
        return [self.images[x].get(y, Fraction(0)) for y in names for x in names]

    def to_json(self) -> dict:
        index = self.algebra.basis.index
        return {x: {y: format_rational(row[y]) for y in sorted(row, key=index)} for x, row in self.images.items()}


def derivations(algebra) -> list:
    """Basis of the derivation algebra, by exact kernel extraction.

    Unknowns are the matrix entries m[i][j] (coefficient of basis_i in the
    image of basis_j); each basis pair contributes dim L linear equations.
    """
    names, lie = algebra.names, algebra.lie
    n = len(names)
    rows = []
    for j, k in combinations(range(n), 2):
        jk = lie.get((names[j], names[k]), {})
        for i, nm_i in enumerate(names):
            row = [0] * (n * n)
            for l, nm_l in enumerate(names):
                c = jk.get(nm_l)
                if c:
                    row[i * n + l] += c
                c2 = lie.get((nm_l, names[k]), {}).get(nm_i)
                if c2:
                    row[l * n + j] -= c2
                c3 = lie.get((names[j], nm_l), {}).get(nm_i)
                if c3:
                    row[l * n + k] -= c3
            if any(row):
                rows.append(row)
    kernel = linalg.nullspace(rows, n * n)
    return [Derivation(algebra, {x: {y: vec[i * n + j] for i, y in enumerate(names)} for j, x in enumerate(names)})
            for vec in kernel]


def ad(algebra, elem: GradedElement) -> Derivation:
    """The inner derivation bracketing with a fixed element: row x is the sum of the rows [w, x] of
    ``algebra.lie`` weighted by the coordinates of the element on w."""
    if elem.space != algebra.basis:
        raise ValueError("argument lives in the wrong space")
    rows = {}
    for x in algebra.names:
        acc = rows[x] = {}
        for w, c in elem.coords.items():
            for y, d in algebra.lie.get((w, x), {}).items():
                acc[y] = acc.get(y, 0) + c * d
    return Derivation(algebra, rows)


# --- the action maps --------------------------------------------------------

def kappa(l3: L3Pair, delta: Derivation) -> GradedElement:
    """Degree-1 form a |-> -pr_B delta(a); measures failure to preserve A."""
    return l3.basis.element(_kappa(l3, _projections(l3, delta)))


def _projections(l3: L3Pair, delta: Derivation):
    """(pr_A delta, pr_B delta) as {name of L: {id: coeff}}, on the ids of ``L3Pair``: an
    A-name's letter bit, a B-name's rank."""
    ids, a_set = l3._id, set(l3.pair.a_names)
    pra, prb = {}, {}
    for nm, row in delta.images.items():
        pra[nm] = {ids[n]: c for n, c in row.items() if n in a_set}
        prb[nm] = {ids[n]: c for n, c in row.items() if n not in a_set}
    return pra, prb


def _kappa(l3: L3Pair, proj) -> dict:
    """kappa from the projections of the derivation, as ``_projections`` returns them."""
    acc = {}
    for a in l3.pair.a_names:
        l3._place(acc, proj[1][a], l3._id[a], -1)
    return acc


def act1(l3: L3Pair, delta: Derivation, x: GradedElement) -> GradedElement:
    """Degree-0 action on forms: conjugation of the form by delta through the splitting."""
    proj = _projections(l3, delta)
    return multilinear(l3.basis, lambda syms: l3.basis.element(act1_symbol(l3, proj, syms[0])), [x])


def act1_symbol(l3: L3Pair, proj, sym: str) -> dict:
    # (delta |> X)(J) = pr_B delta(X(J)) - sum_j X(J with J_j replaced by pr_A delta(J_j))
    pra, prb = proj
    K, b = l3._code[sym]
    acc = {}
    l3._place(acc, prb[l3.pair.b_names[b]], K)
    for g in l3.pair.a_names:
        l3._contract(acc, pra[g], K, b, -1, l3._id[g])
    return acc


def act2_symbols(l3: L3Pair, proj, sx: str, sy: str) -> dict:
    # two shuffle sums: pr_A delta of one form's value in slot 0 of the other
    pra, b_names = proj[0], l3.pair.b_names
    (KX, bX), (KY, bY) = l3._code[sx], l3._code[sy]
    acc = {}
    l3._contract(acc, pra[b_names[bX]], KY, bY, 1 if KX.bit_count() % 2 else -1, KX)
    l3._contract(acc, pra[b_names[bY]], KX, bX, 1, 0, KY)
    return acc


class ActionMaps:
    """Tabulated action maps of a list of derivations on the form space.

    ``maps[r]`` is {n: the arity-n action map of der r} for n = 0, 1, 2, a
    skew table of degree 1 - n; arity 0 is the curvature, under the key ().
    """

    def __init__(self, l3: L3Pair, ders):
        self.l3 = l3
        self.ders = list(ders)
        self.maps = []
        basis = l3.basis
        pairs = list(iter_normalized_tuples(basis, 2, symmetric=False))
        for d in self.ders:
            proj = _projections(l3, d)
            self.maps.append({
                0: tabulate(basis, 0, 1, [()], partial(_kappa, l3, proj)),
                1: tabulate(basis, 1, 0, ((nm,) for nm in basis.names), partial(act1_symbol, l3, proj)),
                2: tabulate(basis, 2, -1, pairs, partial(act2_symbols, l3, proj)),
            })

    def dim(self) -> int:
        return len(self.ders)

    @cached_property
    def commutator_coords(self) -> dict:
        """{(r, s): coordinates of [der_r, der_s]} for r < s, solved on first use."""
        pairs = [(r, s) for r in range(self.dim()) for s in range(r + 1, self.dim())]
        targets = [self.ders[r].commutator(self.ders[s]).to_vector() for r, s in pairs]
        coords = linalg.in_span_all([d.to_vector() for d in self.ders], targets)
        if any(c is None for c in coords):
            raise ValueError("derivation basis is not closed under commutator")
        return dict(zip(pairs, coords))

    @cached_property
    def integer_entries(self) -> list:
        """Per derivation, {n: (D, {key: ((symbol, integer), ...)})}: each map's integer form over
        its denominator (``MultiTable.integer_form``), built on first use; the coefficients must be rational."""
        return [{n: t.integer_form() for n, t in maps.items()} for maps in self.maps]


# --- direct verification of the action axioms -------------------------------

BRACKET_RULE = "action-bracket"
COMMUTATOR_RULE = "action-commutator"


def action_walk(kernel: ShuffleInsertion, action: ActionMaps, psis) -> dict:
    """{labels: [(side 0's nonzero sums, side 1's table, sums swept on side 0) per arity]}: both forms of
    every composite of the action, from one walk per derivation and per commutator pair in ``kernel``.

    Label (r,) is der r's bracket rule on V (side 0) with [Q, psi_r] on V[1] (side 1) to arity SQUARE_ARITY - 1,
    (r, s) the commutator rule with psi_[r,s] - [psi_r, psi_s] over ``commutator_coords`` to SQUARE_ARITY - 2.
    The tables of a term's two sides are mu_r and psi_r (of ``psis``), or l_p and Q_p.
    """
    st = action.l3.structure()
    brackets = ({p: t for p, t in st.brackets.items() if not t.is_zero()}, st.codifferential.components)
    sided = [(maps, psis[r].components) for r, maps in enumerate(action.maps)]
    walks = [((r,), [(lambda k: ((-1) ** k, 1), brackets, mu), (lambda k: (1, -1), mu, brackets)], [])
             for r, mu in enumerate(sided)]
    walks += [((r, s), [(lambda k: (-1, -1), sided[r], sided[s]), (lambda k: (1, 1), sided[s], sided[r])],
               [(c, sided[u]) for u, c in enumerate(coords) if c]) for (r, s), coords in action.commutator_coords.items()]
    out = {}
    for labels, terms, linear in walks:
        sums = out[labels] = []
        for n in range(SQUARE_ARITY + 1 - len(labels)):
            axiom, square = insertion_sums(kernel, n, terms, linear)
            sums.append((kernel.nonzero(axiom, 0), kernel.table(square, n, 2 - len(labels)), len(axiom)))
    return out


def check_action_axioms(tg: ThetaGamma, limit: int = 16):
    """Sweep both compatibility equations over all derivations and basis tuples: defect records
    {identity, inputs, defect}, none when the maps define an action.  The bracket rule for der r on a
    wedge word of arity n <= 4 is

        sum chi mu_r(L_p(chunk), rest) + sum (-1)^p chi L_m(mu_r(chunk), rest)

    over 2-block shuffles, with the curvature as the arity-0 action map; the commutator rule for r < s
    on arity n <= 3 is

        mu_[r,s] - mu_r(mu_s(chunk), rest) + mu_s(mu_r(chunk), rest).

    Both are side 0 of ``tg.walk``, the walk that also makes the theta/gamma square.  Failures come in
    arity, word and derivation order and stop at ``limit``.
    """
    walk, defects = tg.walk, []
    for identity, width in ((BRACKET_RULE, 1), (COMMUTATOR_RULE, 2)):
        labels = [lab for lab in walk if len(lab) == width]
        for n in range(SQUARE_ARITY + 1 - width):
            found = sorted(((word, pos, key, val) for pos, lab in enumerate(labels) for word, key, val in walk[lab][n][0]),
                           key=lambda f: f[:2])
            for _, pos, key, val in found:
                inputs = ["der%d" % r for r in labels[pos]] + list(key)
                defects.append({"identity": "%s-n%d" % (identity, n), "inputs": inputs, "defect": val})
                if len(defects) >= limit:
                    return defects
    return defects


# --- the coderivation form of the action ------------------------------------

SQUARE_ARITY = 5  # Q has arity <= 3 and psi <= 2: [Q, psi] vanishes above arity 4, psi o psi above 3


def transport_sign(n: int) -> int:
    """(-1)^n on the arity-n action map in psi, past the shift's own (-1)^(n(n+3)/2 + sum_i (n-i)|x_i|):
    of the two global signs the chain-map equation allows, the one under which the bracket equations
    and the square-zero property of the extended codifferential hold (verified exhaustively in tests)."""
    return (-1) ** n


class ThetaGamma:
    """The action transported to the shifted coalgebra: per derivation one degree-0 coderivation
    psi = gamma^# + theta of the full coalgebra, whose arity-0 table is gamma and whose reduced part
    (``truncate``) is theta; ``walk`` runs in ``kernel``, which a verdict shares with its Jacobi walk."""

    def __init__(self, action: ActionMaps, kernel: ShuffleInsertion):
        self.action, self.l3, self.kernel = action, action.l3, kernel
        self.Q = action.l3.structure().codifferential
        shifted = self.shifted = self.Q.space
        self.psis = [Coderivation(shifted, 0, {n: shift_table(t, transport_sign(n)) for n, t in maps.items()})
                     for maps in action.maps]

    @cached_property
    def walk(self) -> dict:
        """``action_walk`` of both sides, walked on first use."""
        return action_walk(self.kernel, self.action, self.psis)

    @cached_property
    def square(self) -> dict:
        """{(r,): [Q, psi_r]} for every derivation r, then {(r, s): psi_[r,s] - [psi_r, psi_s]} over
        ``commutator_coords``: every composite of the action, side 1 of ``walk``."""
        return {labels: Coderivation(self.shifted, 2 - len(labels), {n: t for n, (_, t, _) in enumerate(sums)})
                for labels, sums in self.walk.items()}


def check_theta_gamma(tg: ThetaGamma, limit: int = 16):
    """Report the two identities of the transported action psi_h = gamma_h^# + theta_h.

    1. [Q, psi_r] = 0: its arity-0 part Q(gamma_r) is ``gamma-cocycle``,
       the rest ``theta-chain`` ([Q, theta_r] = -(gamma_r) -| Q).
    2. psi_[r,s] = [psi_r, psi_s] for r < s: the arity-0 part of the
       difference is ``gamma-bracket``, the rest ``theta-bracket``.

    Each nonzero part of a composite of ``tg.square`` is one defect record;
    the records stop at ``limit`` after the derivation (or pair) that reaches it.
    """
    defects = []
    for labels, defect in tg.square.items():
        identities = ("gamma-cocycle", "theta-chain") if len(labels) == 1 else ("gamma-bracket", "theta-bracket")
        inputs = ["der%d" % u for u in labels]
        gamma, theta = defect.component(0), defect.truncate()
        if gamma is not None:
            defects.append({"identity": identities[0], "inputs": inputs, "defect": gamma.evaluate([])})
        if not theta.is_zero():
            defects.append({"identity": identities[1], "inputs": inputs, "defect": theta})
        if len(defects) >= limit:
            break
    return defects


# --- the extended structure on derivations (+) forms -------------------------

class ExtendedStructure:
    """Codifferential on the shifted sum of the derivation space and the forms, read in its parts:
    the form codifferential Q on pure form words, each psi_r under its derivation letter (the
    curvature feeds the letter alone to forms, theta_r takes it with form letters), both where
    ``ThetaGamma`` holds them, and the derivation bracket on pure derivation pairs, the one table
    built here.  Everything with two or more derivation letters in arity three or more vanishes."""

    def __init__(self, tg: ThetaGamma):
        action, base = tg.action, tg.l3.basis
        self.tg = tg
        prefix = "der"
        while any(nm.startswith(prefix) for nm in base.names):
            prefix = "_" + prefix
        der = self.der_names = tuple("%s%d" % (prefix, r) for r in range(action.dim()))
        self.shifted = GradedBasis([(nm, 0) for nm in der] + list(base.symbols)).shifted(1)  # the sum basis
        bracket = MultiTable(self.shifted, 2, "symmetric", 1)
        for (r, s), coords in action.commutator_coords.items():
            if any(coords):
                bracket.values[(der[r], der[s])] = GradedElement(self.shifted, {der[u]: c for u, c in enumerate(coords) if c})
        self.der_bracket = Coderivation(self.shifted, 1, {2: bracket})

    def violations(self):
        """Structural requirements on the words of the parts: Q's, each psi_r's under der_r and the bracket's.

        Words with two or more derivation letters must die in arity >= 3,
        and no component may output a derivation letter except the pure
        derivation pair in arity 2 (the two strict-morphism conditions).
        """
        der, der_set, bad = self.der_names, set(self.der_names), []
        for letters, part in [((), self.tg.Q), ((), self.der_bracket)] + [((der[r],), psi) for r, psi in enumerate(self.tg.psis)]:
            for _, key, val in part.items():
                word = letters + key
                n_der = sum(map(der_set.__contains__, word))
                if len(word) >= 3 and n_der >= 2:
                    bad.append(("two-derivation-word", word))
                if not der_set.isdisjoint(val.coords) and not (len(word) == 2 and n_der == 2):
                    bad.append(("derivation-valued-output", word))
        return bad


def extended_square(ext: ExtendedStructure, q_square: Coderivation, max_arity: int, limit: int = 16):
    """The words of the extended codifferential's square up to max_arity, as ``square_defects``
    lists them, without composing it: the word of derivation letters r (, s) and a form key is the
    composite ``ext.tg.square[r (, s)]`` at that key, a pure form word is one of Q o Q (``q_square``,
    composed to max_arity), and one of three letters is the Jacobi identity of the derivation bracket.
    There is no other word, and none above ``SQUARE_ARITY``."""
    der = ext.der_names
    parts = [(tuple(der[u] for u in labels), defect) for labels, defect in ext.tg.square.items()]
    parts += [((), q_square), ((), compose(ext.der_bracket, ext.der_bracket, 3))]
    return square_defects([
        (n + len(letters), letters + key, GradedElement(ext.shifted, val.coords))
        for letters, defect in parts for n, key, val in defect.items() if n + len(letters) <= max_arity
    ], limit)


# --- cohomology of the differential and the induced action -------------------

def differential_matrix(l3: L3Pair, k: int):
    """(degree-k names, degree-(k+1) names, rows): the matrix of the differential
    from degree k to k + 1, one row per target symbol, one column per source."""
    basis = l3.basis
    src = tuple(nm for nm in basis.names if basis.degree(nm) == k)
    tgt = tuple(nm for nm in basis.names if basis.degree(nm) == k + 1)
    d = l3.structure().bracket(1)
    images = [d.eval_basis((nm,)) if d is not None else basis.zero() for nm in src]
    return src, tgt, [[img.coords.get(out, Fraction(0)) for img in images] for out in tgt]


class CohomologyModel:
    """Kernel-mod-image of the degree +1 differential, with representatives."""

    def __init__(self, l3: L3Pair):
        self.l3 = l3
        space = l3.basis
        self.degrees = sorted({space.degree(nm) for nm in space.names})
        matrices = {k: differential_matrix(l3, k) for k in self.degrees}
        self.names_by_degree = {k: matrices[k][0] for k in self.degrees}
        self.reps = {}
        self.dims = {}
        self.boundaries = {}
        for k in self.degrees:
            src, _tgt, rows = matrices[k]
            kernel = linalg.nullspace(rows, len(src)) if src else []
            # the boundaries are the nonzero columns of d from degree k - 1
            into = matrices[k - 1][2] if k - 1 in matrices else []
            boundary_vecs = [list(col) for col in zip(*into) if any(col)]
            # one pivot pass over the boundaries, then the kernel: the picks past the boundaries are the representatives
            nb = len(boundary_vecs)
            picked = linalg.independent_subset(boundary_vecs + kernel)
            boundary_basis = [boundary_vecs[i] for i in picked if i < nb]
            reps = [GradedElement(space, {nm: c for nm, c in zip(src, kernel[i - nb]) if c}) for i in picked if i >= nb]
            self.reps[k] = reps
            self.dims[k] = len(reps)
            self.boundaries[k] = boundary_basis

    def class_coords(self, z: GradedElement, k: int):
        """Coordinates of a cycle's class in the representative basis."""
        src = self.names_by_degree.get(k, ())
        if not src:
            if z.is_zero():
                return []
            raise ValueError("element of empty degree %d" % k)
        target = [z.coords.get(nm, Fraction(0)) for nm in src]
        gens = [[r.coords.get(nm, Fraction(0)) for nm in src] for r in self.reps[k]]
        gens += self.boundaries[k]
        coords = linalg.in_span(gens, target)
        if coords is None:
            raise ValueError("element is not a cycle of degree %d" % k)
        return coords[: len(self.reps[k])]

    def induced_bracket(self, k1: int, i1: int, k2: int, i2: int):
        """Class coordinates of the bracket of two representatives."""
        z = self.l3.bracket2(self.reps[k1][i1], self.reps[k2][i2])
        return self.class_coords(z, k1 + k2)

    def to_json(self) -> dict:
        return {
            "dims": {str(k): self.dims[k] for k in self.degrees},
            "representatives": {str(k): [r.to_json() for r in self.reps[k]] for k in self.degrees},
        }


def induced_action(l3: L3Pair, model: CohomologyModel, delta: Derivation):
    """Operator induced on cohomology by a derivation with vanishing curvature.

    Returns {degree: columns}, each column the class coordinates of the
    image of one representative.
    """
    if not kappa(l3, delta).is_zero():
        raise ValueError("the derivation does not preserve the subalgebra (nonzero curvature)")
    out = {}
    for k in model.degrees:
        cols = []
        for rep in model.reps[k]:
            img = act1(l3, delta, rep)
            cols.append(model.class_coords(img, k))
        out[k] = cols
    return out
