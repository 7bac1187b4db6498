"""The derivation algebra of a Lie algebra and its action on the form brackets.

``derivations`` computes a basis of all operators with delta[u,v] =
[delta u, v] + [u, delta v] by exact kernel extraction.  Such an operator
acts on the B-valued A-forms of a pair through three maps:

* a curvature term  kappa(delta) = -(pr_B . delta)|_A, a degree-1 form,
* a degree-0 operator  delta |> X  on forms,
* a degree -1 pairing  delta |> (X, Y).

Two independent verifications of the action axioms are provided.
``check_action_axioms`` sweeps the bracket-compatibility and
commutator-compatibility equations of the action maps directly;
``check_theta_gamma`` transports the maps to coderivation data (gamma, theta)
on the shifted coalgebra and verifies the four structural equations there
with the coderivation calculus.  One reports clean iff the other does.

``extend_sum`` assembles the codifferential on the direct sum of the
derivation algebra (in degree 0) and the form space, whose square-zero
property packages the whole action.  ``cohomology`` computes the cohomology
of the differential with its induced bracket, on which the kernel of kappa
acts by derivations.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from . import linalg
from .graded import GradedBasis, GradedElement, MultiTable, ShuffleInsertion, multilinear
from .liepair import L3Pair, form_name
from .linfty import (
    Coderivation,
    brackets_to_codifferential,
    coderivation_sum,
    commutator,
    contract,
    iter_normalized_tuples,
)
from .signs import perm_sign, shuffles2


class Derivation:
    """Linear operator on a Lie algebra, stored by images of basis vectors."""

    def __init__(self, algebra, images: dict):
        self.algebra = algebra
        fixed = {}
        for nm in algebra.names:
            img = images.get(nm)
            fixed[nm] = img if img is not None else algebra.basis.zero()
            if fixed[nm].space != algebra.basis:
                raise ValueError("image of %r lives in the wrong space" % (nm,))
        self.images = fixed

    def apply(self, elem: GradedElement) -> GradedElement:
        return multilinear(self.algebra.basis, lambda syms: self.images[syms[0]], [elem])

    def defects(self):
        """Basis pairs where the derivation identity fails."""
        bad = []
        names = self.algebra.names
        for i, j in combinations(range(len(names)), 2):
            u, v = names[i], names[j]
            lhs = self.apply(self.algebra.bracket_names(u, v))
            rhs = self.algebra.bracket(self.images[u], self.algebra.unit(v)) + self.algebra.bracket(
                self.algebra.unit(u), self.images[v]
            )
            if lhs != rhs:
                bad.append((u, v, lhs - rhs))
        return bad

    def is_derivation(self) -> bool:
        return not self.defects()

    def commutator(self, other: "Derivation") -> "Derivation":
        images = {}
        for nm in self.algebra.names:
            images[nm] = self.apply(other.images[nm]) - other.apply(self.images[nm])
        return Derivation(self.algebra, images)

    def add(self, other: "Derivation") -> "Derivation":
        return Derivation(
            self.algebra, {nm: self.images[nm] + other.images[nm] for nm in self.algebra.names}
        )

    def scale(self, c) -> "Derivation":
        return Derivation(self.algebra, {nm: self.images[nm].scale(c) for nm in self.algebra.names})

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self.images.values())

    def __eq__(self, other):
        return (
            isinstance(other, Derivation)
            and self.algebra is other.algebra
            and self.images == other.images
        )

    def to_vector(self):
        """Flat coordinate vector (output index major) for linear algebra."""
        names = self.algebra.names
        vec = []
        for out_nm in names:
            for in_nm in names:
                vec.append(self.images[in_nm].coords.get(out_nm, Fraction(0)))
        return vec

    def to_json(self) -> dict:
        return {nm: self.images[nm].to_json() for nm in self.algebra.names}


def derivations(algebra) -> list:
    """Basis of the derivation algebra, by exact kernel extraction.

    Unknowns are the matrix entries m[i][j] (coefficient of basis_i in the
    image of basis_j); each basis pair contributes dim L linear equations.
    """
    names = algebra.names
    n = len(names)
    rows = []
    for j, k in combinations(range(n), 2):
        br = algebra.bracket_names(names[j], names[k])
        for i in range(n):
            row = [Fraction(0)] * (n * n)
            for l, nm_l in enumerate(names):
                c = br.coords.get(nm_l)
                if c:
                    row[i * n + l] += c
                c2 = algebra.table.eval_basis((nm_l, names[k])).coords.get(names[i])
                if c2:
                    row[l * n + j] -= c2
                c3 = algebra.table.eval_basis((names[j], nm_l)).coords.get(names[i])
                if c3:
                    row[l * n + k] -= c3
            if any(row):
                rows.append(row)
    kernel = linalg.nullspace(rows, n * n)
    out = []
    for vec in kernel:
        images = {}
        for j, in_nm in enumerate(names):
            coords = {}
            for i, out_nm in enumerate(names):
                c = vec[i * n + j]
                if c:
                    coords[out_nm] = c
            images[in_nm] = GradedElement(algebra.basis, coords)
        out.append(Derivation(algebra, images))
    return out


def ad(algebra, elem: GradedElement) -> Derivation:
    """The inner derivation bracketing with a fixed element."""
    images = {nm: algebra.bracket(elem, algebra.unit(nm)) for nm in algebra.names}
    return Derivation(algebra, images)


def der_coords(basis_ders, delta: Derivation):
    """Coordinates of a derivation in a given derivation basis, or None."""
    vectors = [d.to_vector() for d in basis_ders]
    return linalg.in_span(vectors, delta.to_vector())


# --- the action maps --------------------------------------------------------

def kappa(l3: L3Pair, delta: Derivation) -> GradedElement:
    """Degree-1 form a |-> -pr_B delta(a); measures failure to preserve A."""
    pair = l3.pair
    coords = {}
    for a in pair.a_names:
        v = pair.pr_b(delta.apply(pair.algebra.unit(a)))
        for b, c in v.coords.items():
            coords[form_name((a,), b)] = -c
    return GradedElement(l3.basis, coords)


def act1(l3: L3Pair, delta: Derivation, x: GradedElement) -> GradedElement:
    """Degree-0 action on forms: conjugation of the form by delta through the splitting."""
    pair = l3.pair

    def value(syms):
        K, b = l3.decode[syms[0]]
        if not K:
            return l3.from_b_element(pair.pr_b(delta.apply(pair.algebra.unit(b))))
        unit = l3.basis.unit(syms[0])

        def values(J):
            total = pair.algebra.basis.zero()
            for j in range(len(K)):
                slot = pair.pr_a(delta.apply(pair.algebra.unit(J[j])))
                if not slot.is_zero():
                    total = total - l3.eval_form_elem_slot(unit, J, j, slot)
            val = l3.eval_form(unit, J)
            if not val.is_zero():
                total = total + pair.pr_b(delta.apply(val))
            return total

        return l3.element_from_values(len(K), values)

    return multilinear(l3.basis, value, [x])


def act2(l3: L3Pair, delta: Derivation, x: GradedElement, y: GradedElement) -> GradedElement:
    """Degree (-1) pairing of the action; graded skew in its two form slots."""
    return multilinear(l3.basis, lambda syms: act2_symbols(l3, delta, *syms), [x, y])


def act2_symbols(l3: L3Pair, delta: Derivation, sx: str, sy: str) -> GradedElement:
    pair = l3.pair
    KX, _bx = l3.decode[sx]
    KY, _by = l3.decode[sy]
    i, j = len(KX), len(KY)
    if i + j == 0:
        return l3.zero()
    X = l3.basis.unit(sx)
    Y = l3.basis.unit(sy)
    m = i + j - 1

    def pra_delta(v: GradedElement) -> GradedElement:
        return pair.pr_a(delta.apply(v))

    def values(J):
        total = pair.algebra.basis.zero()
        s1 = -1 if (i + 1) % 2 else 1
        for sigma in shuffles2(i, j - 1):
            sgn = perm_sign(sigma)
            aX = [J[sigma[l] - 1] for l in range(i)]
            aY = [J[sigma[i + l] - 1] for l in range(j - 1)]
            inner = pra_delta(l3.eval_form(X, aX))
            if not inner.is_zero():
                total = total + l3.eval_form_elem_slot(Y, [None] + aY, 0, inner).scale(s1 * sgn)
        for sigma in shuffles2(i - 1, j):
            sgn = perm_sign(sigma)
            aX = [J[sigma[l] - 1] for l in range(i - 1)]
            aY = [J[sigma[i - 1 + l] - 1] for l in range(j)]
            inner = pra_delta(l3.eval_form(Y, aY))
            if not inner.is_zero():
                total = total + l3.eval_form_elem_slot(X, [None] + aX, 0, inner).scale(sgn)
        return total

    return l3.element_from_values(m, values)


def varrho1(l3: L3Pair, delta: Derivation, omega: GradedElement) -> GradedElement:
    """Degree-0 operator on scalar forms paired with the degree-0 action."""
    pair = l3.pair

    def value(syms):
        unit = l3.scalar_basis.unit(syms[0])
        k = len(l3.scalar_decode[syms[0]])
        coords = {}
        for J in combinations(pair.a_names, k):
            total = 0
            for j in range(k):
                slot = pair.pr_a(delta.apply(pair.algebra.unit(J[j])))
                for a_nm, ca in slot.coords.items():
                    args = list(J)
                    args[j] = a_nm
                    val = l3.eval_scalar(unit, args)
                    if val:
                        total = total - ca * val
            if total:
                coords[form_name(J)] = total
        return GradedElement(l3.scalar_basis, coords)

    return multilinear(l3.scalar_basis, value, [omega])


def varrho2(l3: L3Pair, delta: Derivation, x: GradedElement, omega: GradedElement) -> GradedElement:
    """Degree (|x|-1) operator on scalar forms paired with the degree -1 action."""
    pair = l3.pair

    def value(syms):
        X, w_unit = l3.basis.unit(syms[0]), l3.scalar_basis.unit(syms[1])
        i, k = len(l3.decode[syms[0]][0]), len(l3.scalar_decode[syms[1]])
        if i + k == 0:
            return l3.scalar_basis.zero()
        s1 = -1 if (i + 1) % 2 else 1
        coords = {}
        for J in combinations(pair.a_names, i + k - 1):
            total = 0
            for sigma in shuffles2(i, k - 1):
                sgn = perm_sign(sigma)
                aX = [J[sigma[l] - 1] for l in range(i)]
                aW = [J[sigma[i + l] - 1] for l in range(k - 1)]
                inner = pair.pr_a(delta.apply(l3.eval_form(X, aX)))
                for a_nm, ca in inner.coords.items():
                    val = l3.eval_scalar(w_unit, [a_nm] + aW)
                    if val:
                        total = total + s1 * sgn * ca * val
            if total:
                coords[form_name(J)] = total
        return GradedElement(l3.scalar_basis, coords)

    return multilinear(l3.scalar_basis, value, [x, omega])


class ActionMaps:
    """Tabulated action maps of a list of derivations on the form space."""

    def __init__(self, l3: L3Pair, ders):
        self.l3 = l3
        self.ders = list(ders)
        self.kappas = [kappa(l3, d) for d in self.ders]
        self.mu1 = []
        self.mu2 = []
        basis = l3.basis
        for d in self.ders:
            t1 = MultiTable(basis, 1, "skew", 0)
            for nm in basis.names:
                val = act1(l3, d, basis.unit(nm))
                if not val.is_zero():
                    t1.set_value((nm,), val)
            t2 = MultiTable(basis, 2, "skew", -1)
            for key in iter_normalized_tuples(basis, 2, symmetric=False):
                val = act2_symbols(l3, d, *key)
                if not val.is_zero():
                    t2.set_value(key, val)
            self.mu1.append(t1)
            self.mu2.append(t2)

    def dim(self) -> int:
        return len(self.ders)

    def combination(self, coeffs) -> "ActionMaps":
        """The one-derivation action of sum_r coeffs[r] * der_r, combined
        entry by entry from the stored tables (zero coefficients are skipped)."""
        basis = self.l3.basis
        out = ActionMaps(self.l3, [])
        delta = Derivation(self.l3.pair.algebra, {})
        kap = basis.zero()
        t1 = MultiTable(basis, 1, "skew", 0)
        t2 = MultiTable(basis, 2, "skew", -1)
        for r, coeff in enumerate(coeffs):
            if not coeff:
                continue
            delta = delta.add(self.ders[r].scale(coeff))
            kap = kap + self.kappas[r].scale(coeff)
            for table, src in ((t1, self.mu1[r]), (t2, self.mu2[r])):
                for key, val in src.values.items():
                    prev = table.values.pop(key, None)
                    new = val.scale(coeff) if prev is None else prev + val.scale(coeff)
                    if not new.is_zero():
                        table.values[key] = new
        out.ders, out.kappas, out.mu1, out.mu2 = [delta], [kap], [t1], [t2]
        return out

    def commutator_coords(self) -> dict:
        """{(r, s): coordinates of [der_r, der_s]} for r < s, solved afresh each call."""
        pairs = [(r, s) for r in range(self.dim()) for s in range(r + 1, self.dim())]
        targets = [self.ders[r].commutator(self.ders[s]).to_vector() for r, s in pairs]
        coords = linalg.in_span_all([d.to_vector() for d in self.ders], targets)
        if any(c is None for c in coords):
            raise ValueError("derivation basis is not closed under commutator")
        return dict(zip(pairs, coords))

    def mu_table(self, r: int, n: int):
        """The arity-n action map of der r; arity 0 is the curvature, as an arity-0 table."""
        if n == 0:
            t = MultiTable(self.l3.basis, 0, "skew", 1)
            t.set_value((), self.kappas[r])
            return t
        if n == 1:
            return self.mu1[r]
        if n == 2:
            return self.mu2[r]
        return None


# --- direct verification of the action axioms -------------------------------

BRACKET_RULE = "action-bracket"
COMMUTATOR_RULE = "action-commutator"


def check_action_axioms(action: ActionMaps, max_n: int = 4, limit: int = 16):
    """Sweep both compatibility equations over all derivations and basis tuples.

    Returns defect records {identity, inputs, defect}; an empty list means
    the maps define an action.  The bracket rule for der r on a wedge word
    of arity n <= max_n is

        sum chi mu_r(L_p(chunk), rest) + sum (-1)^p chi L_m(mu_r(chunk), rest)

    over 2-block shuffles, with the curvature as the arity-0 action map; the
    commutator rule for r < s on arity n < max_n is

        mu_[r,s] - mu_r(mu_s(chunk), rest) + mu_s(mu_r(chunk), rest).

    Every equation of one arity and derivation (or pair) is a single
    support-driven shuffle-insertion sum, so words that no pair of stored
    entries reaches are never visited.  Failures come in arity order, then
    word order, then derivation order, and stop at ``limit``.
    """
    l3 = action.l3
    brackets = {p: t for p, t in l3.structure().brackets.items() if not t.is_zero()}
    kernel = ShuffleInsertion(l3.basis, symmetric=False)
    defects = []

    def mu(r: int, p: int):
        """Stored entries of the arity-p action map of der r."""
        t = action.mu_table(r, p)
        return t.values.items() if t is not None else ()

    def bracket_rule(acc, n, r):
        for p in range(n + 1):
            m = n - p + 1
            if p in brackets:
                kernel.add(acc, action.mu_table(r, m), brackets[p].values.items())
            kernel.add(acc, brackets.get(m), mu(r, p), 1 if p % 2 == 0 else -1)

    def commutator_rule(acc, n, r, s):
        for u, c in enumerate(comm[(r, s)]):
            if c:
                for key, val in mu(u, n):
                    kernel.add_element(acc, key, val, c)
        for p in range(n + 1):
            kernel.add(acc, action.mu_table(r, n - p + 1), mu(s, p), -1)
            kernel.add(acc, action.mu_table(s, n - p + 1), mu(r, p))

    def sweep(identity, n, labels, rule) -> bool:
        """Record one arity's defects, one accumulator at a time; True at ``limit``."""
        found = []
        for pos, label in enumerate(labels):
            acc = {}
            rule(acc, n, *label)
            found.extend((word, pos, key, val) for word, key, val in kernel.nonzero(acc))
        found.sort(key=lambda f: f[:2])
        for _, pos, key, val in found:
            inputs = ["der%d" % r for r in labels[pos]] + list(key)
            defects.append({"identity": "%s-n%d" % (identity, n), "inputs": inputs, "defect": val})
            if len(defects) >= limit:
                return True
        return False

    singles = [(r,) for r in range(action.dim())]
    for n in range(max_n + 1):
        if sweep(BRACKET_RULE, n, singles, bracket_rule):
            return defects
    comm = action.commutator_coords()
    for n in range(max_n):
        if sweep(COMMUTATOR_RULE, n, list(comm), commutator_rule):
            break
    return defects


# --- the coderivation form of the action ------------------------------------

class ThetaGamma:
    """The action transported to the shifted coalgebra: per derivation a
    degree-0 shifted element gamma and a degree-0 reduced coderivation theta."""

    def __init__(self, action: ActionMaps):
        l3 = action.l3
        self.action = action
        self.l3 = l3
        self.Q = brackets_to_codifferential(l3.structure())
        shifted = self.Q.space
        self.shifted = shifted
        self.gammas = []
        self.thetas = []
        base = l3.basis
        # The shift transport of the n-action map carries the sign
        # (-1)^(n(n+3)/2 + sum_i (n-i)|x_i|), so the curvature element and the
        # degree-0 action transport with a bare shift.  Of the two global sign
        # conventions compatible with the chain-map equation, this is the one
        # under which the bracket equations and the square-zero property of
        # the extended codifferential hold (verified exhaustively in tests).
        for r in range(action.dim()):
            self.gammas.append(
                GradedElement(shifted, {nm: c for nm, c in action.kappas[r].coords.items()})
            )
            comps = {}
            t1 = MultiTable(shifted, 1, "symmetric", 0)
            for (nm,), val in action.mu1[r].values.items():
                t1.values[(nm,)] = GradedElement(shifted, dict(val.coords))
            if not t1.is_zero():
                comps[1] = t1
            t2 = MultiTable(shifted, 2, "symmetric", 0)
            for key, val in action.mu2[r].values.items():
                sgn = 1 if base.degree(key[0]) % 2 else -1
                t2.values[key] = GradedElement(shifted, {k: sgn * c for k, c in val.coords.items()})
            if not t2.is_zero():
                comps[2] = t2
            self.thetas.append(Coderivation(shifted, 0, comps))

    def psi(self, r: int) -> Coderivation:
        """The full-coalgebra coderivation gamma^# + theta."""
        th = self.thetas[r]
        return Coderivation(self.shifted, 0, th.components, comp0=self.gammas[r])


def to_theta_gamma(action: ActionMaps) -> ThetaGamma:
    return ThetaGamma(action)


def check_theta_gamma(tg: ThetaGamma, limit: int = 16):
    """Verify the four structural equations of the transported action.

    1. gamma-cocycle:   Q(gamma h) = 0
    2. theta-chain:     [Q, theta h] = -(gamma h) -| Q
    3. gamma-bracket:   gamma[h,h'] = theta(h) gamma(h') - theta(h') gamma(h)
    4. theta-bracket:   theta[h,h'] = [theta h, theta h']
                        + gamma(h') -| theta(h) - gamma(h) -| theta(h')
    """
    action = tg.action
    Q = tg.Q
    defects = []

    def record(identity, inputs, payload):
        defects.append({"identity": identity, "inputs": inputs, "defect": payload})

    comm = action.commutator_coords()
    for r in range(action.dim()):
        closed = Q.apply_element(tg.gammas[r])
        if not closed.is_zero():
            record("gamma-cocycle", ["der%d" % r], closed)
        lhs = commutator(Q, tg.thetas[r], max_arity=4)
        rhs = contract(tg.gammas[r], Q).scale(-1)
        diff = coderivation_sum(lhs, rhs.scale(-1))
        if not diff.is_zero():
            record("theta-chain", ["der%d" % r], diff)
        if len(defects) >= limit:
            return defects

    for (r, s), coords in comm.items():
        gamma_comm = tg.shifted.zero()
        for u, c in enumerate(coords):
            if c:
                gamma_comm = gamma_comm + tg.gammas[u].scale(c)
        rhs1 = tg.thetas[r].apply_element(tg.gammas[s]) - tg.thetas[s].apply_element(tg.gammas[r])
        if gamma_comm != rhs1:
            record("gamma-bracket", ["der%d" % r, "der%d" % s], gamma_comm - rhs1)
        theta_comm = Coderivation(tg.shifted, 0, {})
        for u, c in enumerate(coords):
            if c:
                theta_comm = coderivation_sum(theta_comm, tg.thetas[u].scale(c))
        rhs2 = commutator(tg.thetas[r], tg.thetas[s], max_arity=3)
        rhs2 = coderivation_sum(rhs2, contract(tg.gammas[s], tg.thetas[r]))
        rhs2 = coderivation_sum(rhs2, contract(tg.gammas[r], tg.thetas[s]).scale(-1))
        diff = coderivation_sum(theta_comm, rhs2.scale(-1))
        if not diff.is_zero():
            record("theta-bracket", ["der%d" % r, "der%d" % s], diff)
        if len(defects) >= limit:
            return defects
    return defects


# --- the extended structure on derivations (+) forms -------------------------

class ExtendedStructure:
    """Codifferential on the shifted sum of the derivation space and the forms.

    Components: the curvature feeds single derivation letters to forms, the
    derivation bracket handles pure derivation pairs, theta components handle
    one derivation letter with form letters, the form codifferential handles
    pure form words, and everything with two or more derivation letters in
    arity three or more vanishes.
    """

    def __init__(self, action: ActionMaps):
        l3 = action.l3
        tg = to_theta_gamma(action)
        self.action = action
        self.tg = tg
        base = l3.basis
        prefix = "der"
        while any(nm.startswith(prefix) for nm in base.names):
            prefix = "_" + prefix
        self.der_names = tuple("%s%d" % (prefix, r) for r in range(action.dim()))
        symbols = [(nm, 0) for nm in self.der_names] + list(base.symbols)
        self.sum_basis = GradedBasis(symbols)
        self.shifted = self.sum_basis.shifted(1)
        self.form_names = base.names
        Q = tg.Q
        comps = {}

        def lift(elem: GradedElement) -> GradedElement:
            return GradedElement(self.shifted, dict(elem.coords))

        t1 = MultiTable(self.shifted, 1, "symmetric", 1)
        for r, nm in enumerate(self.der_names):
            g = tg.gammas[r]
            if not g.is_zero():
                t1.values[(nm,)] = lift(g)
        if Q.component(1) is not None:
            for key, val in Q.component(1).values.items():
                t1.values[key] = lift(val)
        if not t1.is_zero():
            comps[1] = t1

        t2 = MultiTable(self.shifted, 2, "symmetric", 1)
        for (r, s), coords in action.commutator_coords().items():
            val = GradedElement(self.shifted, {self.der_names[u]: c for u, c in enumerate(coords) if c})
            if not val.is_zero():
                t2.values[(self.der_names[r], self.der_names[s])] = val
        for r, nm in enumerate(self.der_names):
            th1 = tg.thetas[r].component(1)
            if th1 is not None:
                for (x,), val in th1.values.items():
                    t2.values[(nm, x)] = lift(val)
        if Q.component(2) is not None:
            for key, val in Q.component(2).values.items():
                t2.values[key] = lift(val)
        if not t2.is_zero():
            comps[2] = t2

        t3 = MultiTable(self.shifted, 3, "symmetric", 1)
        for r, nm in enumerate(self.der_names):
            th2 = tg.thetas[r].component(2)
            if th2 is not None:
                for key, val in th2.values.items():
                    t3.values[(nm,) + key] = lift(val)
        if Q.component(3) is not None:
            for key, val in Q.component(3).values.items():
                t3.values[key] = lift(val)
        if not t3.is_zero():
            comps[3] = t3

        self.codifferential = Coderivation(self.shifted, 1, comps)

    def restricted_to_forms(self) -> Coderivation:
        """The codifferential restricted to pure form words."""
        form_set = set(self.form_names)
        comps = {}
        for k, table in self.codifferential.components.items():
            sub = MultiTable(self.shifted, k, "symmetric", 1)
            for key, val in table.values.items():
                if all(nm in form_set for nm in key):
                    sub.values[key] = val
            if not sub.is_zero():
                comps[k] = sub
        return Coderivation(self.shifted, 1, comps)

    def violations(self):
        """Structural requirements on the components.

        Words with two or more derivation letters must die in arity >= 3,
        and no component may output a derivation letter except the pure
        derivation pair in arity 2 (the two strict-morphism conditions).
        """
        bad = []
        der_set = set(self.der_names)
        for k, table in self.codifferential.components.items():
            for key, val in table.values.items():
                n_der = sum(1 for nm in key if nm in der_set)
                if k >= 3 and n_der >= 2:
                    bad.append(("two-derivation-word", key))
                der_out = [nm for nm in val.coords if nm in der_set]
                if der_out and not (k == 2 and n_der == 2):
                    bad.append(("derivation-valued-output", key))
        return bad


def extend_sum(action: ActionMaps) -> ExtendedStructure:
    return ExtendedStructure(action)


# --- cohomology of the differential and the induced action -------------------

class CohomologyModel:
    """Kernel-mod-image of the degree +1 differential, with representatives."""

    def __init__(self, l3: L3Pair):
        self.l3 = l3
        space = l3.basis
        st = l3.structure()
        d = st.bracket(1)
        by_degree = {}
        for nm in space.names:
            by_degree.setdefault(space.degree(nm), []).append(nm)
        self.degrees = sorted(by_degree)
        self.names_by_degree = {k: tuple(by_degree[k]) for k in self.degrees}
        self.reps = {}
        self.dims = {}
        self.boundaries = {}
        for k in self.degrees:
            src = self.names_by_degree[k]
            tgt = self.names_by_degree.get(k + 1, ())
            rows = []
            for out_nm in tgt:
                row = []
                for in_nm in src:
                    val = d.eval_basis((in_nm,)) if d is not None else None
                    row.append(val.coords.get(out_nm, Fraction(0)) if val is not None else Fraction(0))
                rows.append(row)
            kernel = linalg.nullspace(rows, len(src)) if src else []
            prev = self.names_by_degree.get(k - 1, ())
            boundary_vecs = []
            if prev and d is not None:
                for in_nm in prev:
                    val = d.eval_basis((in_nm,))
                    vec = [val.coords.get(nm, Fraction(0)) for nm in src]
                    if any(vec):
                        boundary_vecs.append(vec)
            picked = linalg.independent_subset(boundary_vecs)
            boundary_basis = [boundary_vecs[i] for i in picked]
            rep_idx = linalg.extend_basis(boundary_basis, kernel)
            reps = []
            for i in rep_idx:
                coords = {nm: c for nm, c in zip(src, kernel[i]) if c}
                reps.append(GradedElement(space, coords))
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


def cohomology(l3: L3Pair) -> CohomologyModel:
    return CohomologyModel(l3)


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
