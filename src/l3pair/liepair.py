"""Lie pairs and the graded bracket structure on complement-valued forms.

A pair is a finite-dimensional Lie algebra L (structure constants on a named
basis) with a subalgebra A and the complementary basis B, so L = A (+) B.
Splitting the bracket through the two projections yields four structure maps:

* the flat A-action on B:        nabla_a b = pr_B [a, b]
* the B-operation on A:          eth_b a   = pr_A [b, a]
* the A-valued pairing on B:     beta(b1, b2)      = pr_A [b1, b2]
* the (non-Lie) product on B:    bracket_B(b1, b2) = pr_B [b1, b2]

On the space of B-valued alternating forms on A (graded by form degree),
these induce a differential, a binary bracket and a ternary bracket which
together satisfy the higher Jacobi rules up to arity cap 3.  The binary and
ternary brackets are computed two independent ways: a closed shuffle formula
evaluated on argument tuples, and a mechanical reduction through the
generating Leibniz relations; the test suite requires them to agree entry
for entry.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from itertools import combinations

from .graded import GradedBasis, GradedElement, MultiTable, multilinear, normalize_tuple
from .linfty import LInfinityStructure, iter_normalized_tuples
from .scalars import format_rational, parse_rational
from .signs import perm_sign, shuffles2, shuffles3

_RESERVED_CHARS = set("^|: \t")


def _check_name(name: str):
    if not name or name == "1" or any(ch in _RESERVED_CHARS for ch in name):
        raise ValueError("invalid basis name %r" % (name,))


def _name_list(value, what: str) -> list:
    """A JSON list of basis names; a bare string or any other value is rejected."""
    if not isinstance(value, list) or not all(isinstance(nm, str) for nm in value):
        raise ValueError("%s must be a list of names" % (what,))
    return value


def _field(obj: dict, key: str, where: str):
    """obj[key], or a ValueError that names the missing field and where it is missing."""
    if key not in obj:
        raise ValueError('%s has no "%s" field' % (where, key))
    return obj[key]


class LieAlgebra:
    """Finite-dimensional Lie algebra given by structure constants."""

    def __init__(self, names, brackets, validate: bool = True):
        for nm in names:
            _check_name(nm)
        self.basis = GradedBasis([(nm, 0) for nm in names])
        table = MultiTable(self.basis, 2, "skew", 0)
        for (left, right), out in brackets.items():
            if left not in self.basis or right not in self.basis:
                raise ValueError("unknown symbol in bracket (%r, %r)" % (left, right))
            if self.basis.index(left) >= self.basis.index(right):
                raise ValueError("brackets must be keyed with left < right in basis order")
            elem = GradedElement(self.basis, {k: Fraction(v) for k, v in out.items()})
            table.set_value((left, right), elem)
        self.table = table
        if validate:
            bad = validate_lie(self)
            if bad:
                raise ValueError("Jacobi identity fails on triples: %s" % (bad,))

    @property
    def names(self):
        return self.basis.names

    def dim(self) -> int:
        return len(self.basis)

    def bracket(self, u: GradedElement, v: GradedElement) -> GradedElement:
        return self.table.evaluate([u, v])

    def bracket_names(self, a: str, b: str) -> GradedElement:
        return self.table.eval_basis((a, b))

    def unit(self, name: str) -> GradedElement:
        return self.basis.unit(name)

    def to_json(self) -> dict:
        entries = []
        for (left, right), val in sorted(
            self.table.values.items(), key=lambda kv: (self.basis.index(kv[0][0]), self.basis.index(kv[0][1]))
        ):
            entries.append(
                {
                    "left": left,
                    "right": right,
                    "out": {n: format_rational(c) for n, c in sorted(val.coords.items(), key=lambda kv: self.basis.index(kv[0]))},
                }
            )
        return {"basis": list(self.names), "brackets": entries}

    @classmethod
    def from_json(cls, data: dict, validate: bool = True) -> "LieAlgebra":
        names = _name_list(_field(data, "basis", "the pair"), '"basis"')
        entries = data.get("brackets", [])
        if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
            raise ValueError('"brackets" must be a list of objects')
        brackets = {}
        for i, entry in enumerate(entries):
            where = "bracket entry %d" % i
            left, right, out = (_field(entry, f, where) for f in ("left", "right", "out"))
            key = tuple(_name_list([left, right], '%s: "left" and "right"' % where))
            if key in brackets:
                raise ValueError("duplicate bracket entry for %r" % (key,))
            if not isinstance(out, dict):
                raise ValueError('bracket "out" of %r must be an object of coefficients' % (key,))
            brackets[key] = {n: parse_rational(c) for n, c in out.items()}
        return cls(names, brackets, validate=validate)

    def change_basis(self, new_names, new_vectors, validate: bool = True) -> "LieAlgebra":
        """Rewrite the algebra in a new basis given by element coordinates."""
        from . import linalg

        n = self.dim()
        if len(new_names) != n or len(new_vectors) != n:
            raise ValueError("need exactly %d new basis vectors" % n)
        cols = [[v.coords.get(nm, Fraction(0)) for v in new_vectors] for nm in self.names]
        brackets = {}
        for i in range(n):
            for j in range(i + 1, n):
                w = self.bracket(new_vectors[i], new_vectors[j])
                target = [w.coords.get(nm, Fraction(0)) for nm in self.names]
                coords = linalg.solve(cols, target)
                if coords is None:
                    raise ValueError("new vectors do not span the algebra")
                out = {new_names[k]: c for k, c in enumerate(coords) if c}
                if out:
                    brackets[(new_names[i], new_names[j])] = out
        return LieAlgebra(new_names, brackets, validate=validate)


def validate_lie(alg: LieAlgebra):
    """Triples of basis names where the Jacobi identity fails."""
    bad = []
    names = alg.names
    for i, j, k in combinations(range(len(names)), 3):
        x, y, z = names[i], names[j], names[k]
        jac = (
            alg.table.eval_prepend(alg.bracket_names(x, y), (z,))
            + alg.table.eval_prepend(alg.bracket_names(y, z), (x,))
            + alg.table.eval_prepend(alg.bracket_names(z, x), (y,))
        )
        if not jac.is_zero():
            bad.append((x, y, z))
    return bad


class LiePair:
    """A Lie algebra with a chosen subalgebra A and complementary basis B."""

    def __init__(self, algebra: LieAlgebra, a_names):
        self.algebra = algebra
        a_names = list(a_names)
        for nm in a_names:
            if nm not in algebra.basis:
                raise ValueError("unknown subalgebra symbol %r" % (nm,))
        if len(set(a_names)) != len(a_names):
            raise ValueError("duplicate subalgebra symbols")
        order = algebra.basis.index
        self.a_names = tuple(sorted(a_names, key=order))
        self.b_names = tuple(nm for nm in algebra.names if nm not in set(a_names))
        for x, y in combinations(self.a_names, 2):
            out = algebra.bracket_names(x, y)
            if any(nm not in set(self.a_names) for nm in out.coords):
                raise ValueError("A is not a subalgebra: [%s, %s] leaves it" % (x, y))

    def pr_a(self, elem: GradedElement) -> GradedElement:
        a = set(self.a_names)
        return GradedElement(self.algebra.basis, {n: c for n, c in elem.coords.items() if n in a})

    def pr_b(self, elem: GradedElement) -> GradedElement:
        b = set(self.b_names)
        return GradedElement(self.algebra.basis, {n: c for n, c in elem.coords.items() if n in b})

    def _require_support(self, elem: GradedElement, names, what: str):
        allowed = set(names)
        if any(n not in allowed for n in elem.coords):
            raise ValueError("%s must be supported on %s" % (what, sorted(allowed)))

    def bott(self, a: GradedElement, b: GradedElement) -> GradedElement:
        """The flat A-action on B: pr_B [a, b]."""
        self._require_support(a, self.a_names, "first argument")
        self._require_support(b, self.b_names, "second argument")
        return self.pr_b(self.algebra.bracket(a, b))

    def eth_on_a(self, b: GradedElement, a: GradedElement) -> GradedElement:
        """pr_A [b, a]: the B-operation on A induced by the splitting."""
        self._require_support(b, self.b_names, "first argument")
        self._require_support(a, self.a_names, "second argument")
        return self.pr_a(self.algebra.bracket(b, a))

    def beta(self, b1: GradedElement, b2: GradedElement) -> GradedElement:
        self._require_support(b1, self.b_names, "first argument")
        self._require_support(b2, self.b_names, "second argument")
        return self.pr_a(self.algebra.bracket(b1, b2))

    def bracket_b(self, b1: GradedElement, b2: GradedElement) -> GradedElement:
        self._require_support(b1, self.b_names, "first argument")
        self._require_support(b2, self.b_names, "second argument")
        return self.pr_b(self.algebra.bracket(b1, b2))

    def to_json(self) -> dict:
        data = self.algebra.to_json()
        data["A"] = list(self.a_names)
        return data

    @classmethod
    def from_json(cls, data: dict, validate: bool = True) -> "LiePair":
        alg = LieAlgebra.from_json(data, validate=validate)
        return cls(alg, _name_list(_field(data, "A", "the pair"), '"A"'))

    def digest(self) -> str:
        payload = json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def form_name(k_names, b_name=None) -> str:
    head = "^".join(k_names)
    if b_name is None:
        return head if head else "1"
    return head + "|" + b_name if head else b_name


class L3Pair:
    """The graded bracket structure on B-valued A-forms of a Lie pair.

    Basis symbols of the form space are pairs (increasing tuple of A-names,
    B-name); a symbol of form degree k has degree k.  Scalar forms (no B leg)
    get their own basis, with the empty wedge named "1".
    """

    def __init__(self, pair: LiePair):
        self.pair = pair
        alg = pair.algebra
        a_names = pair.a_names
        self.subsets = []
        for k in range(len(a_names) + 1):
            self.subsets.extend(combinations(a_names, k))
        symbols = []
        self.decode = {}
        for K in self.subsets:
            for b in pair.b_names:
                nm = form_name(K, b)
                symbols.append((nm, len(K)))
                self.decode[nm] = (K, b)
        self.basis = GradedBasis(symbols)
        scalar_symbols = []
        self.scalar_decode = {}
        for K in self.subsets:
            nm = form_name(K)
            scalar_symbols.append((nm, len(K)))
            self.scalar_decode[nm] = K
        self.scalar_basis = GradedBasis(scalar_symbols)
        self._structure = None
        self._b2_cache = {}
        self._b3_cache = {}
        self._b2_gen_cache = {}
        self._b3_gen_cache = {}

    # -- elements ---------------------------------------------------------

    def form(self, k_names, b_name, coeff=1) -> GradedElement:
        return self.basis.unit(form_name(tuple(k_names), b_name)).scale(coeff)

    def scalar_form(self, k_names, coeff=1) -> GradedElement:
        return self.scalar_basis.unit(form_name(tuple(k_names))).scale(coeff)

    def zero(self) -> GradedElement:
        return self.basis.zero()

    def from_b_element(self, v: GradedElement) -> GradedElement:
        """Embed an element supported on B as a degree-0 form."""
        self.pair._require_support(v, self.pair.b_names, "element")
        return GradedElement(self.basis, dict(v.coords))

    def to_b_element(self, x: GradedElement) -> GradedElement:
        out = {}
        for nm, c in x.coords.items():
            K, b = self.decode[nm]
            if K:
                raise ValueError("form has positive degree")
            out[b] = c
        return GradedElement(self.pair.algebra.basis, out)

    # -- evaluation of forms on argument tuples ----------------------------

    def eval_scalar(self, omega: GradedElement, arg_names) -> object:
        """Value of a scalar form on a tuple of A basis names."""
        s, key = self._sort_wedge(arg_names)
        total = 0
        if s:
            for nm, c in omega.coords.items():
                if self.scalar_decode[nm] == key:
                    total = total + c * s
        return total

    def eval_form(self, x: GradedElement, arg_names) -> GradedElement:
        """Value of a B-valued form on a tuple of A basis names, in B."""
        s, key = self._sort_wedge(arg_names)
        out = {}
        if s:
            for nm, c in x.coords.items():
                K, b = self.decode[nm]
                if K == key:
                    out[b] = out.get(b, 0) + (c if s == 1 else -c)
        return GradedElement(self.pair.algebra.basis, out)

    def eval_form_elem_slot(self, x: GradedElement, arg_names, slot: int, elem: GradedElement) -> GradedElement:
        """Evaluate with an A-element substituted into one argument slot."""
        args = list(arg_names)
        return multilinear(
            self.pair.algebra.basis, lambda a: self.eval_form(x, args[:slot] + list(a) + args[slot + 1:]), [elem]
        )

    def element_from_values(self, k: int, values) -> GradedElement:
        """Rebuild a degree-k form from its values on increasing A-tuples."""
        coords = {}
        for K in combinations(self.pair.a_names, k):
            val = values(K)
            for b, c in val.coords.items():
                coords[form_name(K, b)] = c
        return GradedElement(self.basis, coords)

    # -- exterior algebra on scalar forms ----------------------------------

    def wedge(self, w1: GradedElement, w2: GradedElement) -> GradedElement:
        def value(syms):
            s, K = self._sort_wedge(self.scalar_decode[syms[0]] + self.scalar_decode[syms[1]])
            return self.scalar_form(K, s) if s else self.scalar_basis.zero()

        return multilinear(self.scalar_basis, value, [w1, w2])

    def module_product(self, omega: GradedElement, x: GradedElement) -> GradedElement:
        """Left module action of scalar forms on B-valued forms."""

        def value(syms):
            K2, b = self.decode[syms[1]]
            s, K = self._sort_wedge(self.scalar_decode[syms[0]] + K2)
            return self.form(K, b, s) if s else self.zero()

        return multilinear(self.basis, value, [omega, x])

    def interior(self, a_elem: GradedElement, omega: GradedElement) -> GradedElement:
        """Left-slot contraction of a scalar form by an A-element."""

        def value(syms):
            K = self.scalar_decode[syms[1]]
            if syms[0] not in K:
                return self.scalar_basis.zero()
            pos = K.index(syms[0])
            return self.scalar_form(K[:pos] + K[pos + 1:], -1 if pos % 2 else 1)

        return multilinear(self.scalar_basis, value, [a_elem, omega])

    # -- the splitting operations on forms ---------------------------------

    def eth_scalar(self, b_elem: GradedElement, omega: GradedElement) -> GradedElement:
        """Degree-0 derivation of the wedge algebra dual to eth on A.

        On a generator: <eth_b u, a> = -<u, eth_b a> (point base), then
        extended by the Leibniz rule to all wedge words.
        """
        pair = self.pair

        def value(syms):
            K = self.scalar_decode[syms[0]]
            coords = {}
            for slot, gen in enumerate(K):
                for a_nm in pair.a_names:
                    eth = pair.eth_on_a(b_elem, pair.algebra.unit(a_nm))
                    coeff = eth.coords.get(gen)
                    if not coeff:
                        continue
                    replaced = K[:slot] + (a_nm,) + K[slot + 1:]
                    s, merged = self._sort_wedge(replaced)
                    if s:
                        out = form_name(merged)
                        coords[out] = coords.get(out, 0) - s * coeff
            return GradedElement(self.scalar_basis, coords)

        return multilinear(self.scalar_basis, value, [omega])

    def _sort_wedge(self, names):
        """(sign, increasing tuple) of a wedge word of A names; (0, None) if a name repeats."""
        return normalize_tuple(self.pair.algebra.basis, names, False)

    def d_scalar(self, omega: GradedElement) -> GradedElement:
        """Chevalley-Eilenberg differential on scalar A-forms (point base)."""
        pair = self.pair

        def value(syms):
            unit = self.scalar_basis.unit(syms[0])
            k = len(self.scalar_decode[syms[0]])
            coords = {}
            for J in combinations(pair.a_names, k + 1):
                total = 0
                for i, j in combinations(range(k + 1), 2):
                    br = pair.algebra.bracket_names(J[i], J[j])
                    rest = tuple(J[p] for p in range(k + 1) if p not in (i, j))
                    sgn = -1 if (i + j) % 2 else 1  # (-1)^(i+j), 1-based indices
                    for a_nm, ca in br.coords.items():
                        val = self.eval_scalar(unit, (a_nm,) + rest)
                        if val:
                            total = total + sgn * ca * val
                if total:
                    coords[form_name(J)] = total
            return GradedElement(self.scalar_basis, coords)

        return multilinear(self.scalar_basis, value, [omega])

    def d_bott(self, x: GradedElement) -> GradedElement:
        """Chevalley-Eilenberg differential of the flat A-action on B-forms."""
        pair = self.pair

        def value(syms):
            unit = self.basis.unit(syms[0])
            k = len(self.decode[syms[0]][0])

            def values(J):
                total = pair.algebra.basis.zero()
                for i in range(k + 1):
                    val = self.eval_form(unit, J[:i] + J[i + 1:])
                    if not val.is_zero():
                        sgn = 1 if i % 2 == 0 else -1  # (-1)^(i+1), 1-based
                        total = total + pair.bott(pair.algebra.unit(J[i]), val).scale(sgn)
                for i, j in combinations(range(k + 1), 2):
                    br = pair.algebra.bracket_names(J[i], J[j])
                    rest = [J[p] for p in range(k + 1) if p not in (i, j)]
                    sgn = -1 if (i + j) % 2 else 1  # (-1)^(i+j), 1-based indices
                    total = total + self.eval_form_elem_slot(unit, [None] + rest, 0, br).scale(sgn)
                return total

            return self.element_from_values(k + 1, values)

        return multilinear(self.basis, value, [x])

    # -- anchors ------------------------------------------------------------

    def anchor1(self, x: GradedElement, omega: GradedElement) -> GradedElement:
        """rho_1(lambda (x) b) omega = lambda . (eth_b omega)."""

        def value(syms):
            K, b = self.decode[syms[0]]
            return self.wedge(self.scalar_form(K), self.eth_scalar(self.pair.algebra.unit(b), omega))

        return multilinear(self.scalar_basis, value, [x])

    def anchor2(self, x: GradedElement, y: GradedElement, omega: GradedElement) -> GradedElement:
        """rho_2(l (x) b, l' (x) b') omega = (-1)^(|l|+|l'|+1) (l ^ l') . (beta(b,b') -| omega)."""

        def value(syms):
            (K1, b1), (K2, b2) = self.decode[syms[0]], self.decode[syms[1]]
            beta = self.pair.beta(self.pair.algebra.unit(b1), self.pair.algebra.unit(b2))
            if beta.is_zero():
                return self.scalar_basis.zero()
            sgn = -1 if (len(K1) + len(K2) + 1) % 2 else 1
            lam = self.wedge(self.scalar_form(K1), self.scalar_form(K2))
            return self.wedge(lam, self.interior(beta, omega)).scale(sgn)

        return multilinear(self.scalar_basis, value, [x, y])

    # -- binary and ternary brackets: closed shuffle formulas ---------------

    def bracket2(self, x: GradedElement, y: GradedElement) -> GradedElement:
        """Binary bracket via the closed shuffle formula."""
        return multilinear(self.basis, lambda syms: self._bracket2_syms(*syms), [x, y])

    def _bracket2_syms(self, sx: str, sy: str) -> GradedElement:
        key = (sx, sy)
        if key in self._b2_cache:
            return self._b2_cache[key]
        KX, bX = self.decode[sx]
        KY, bY = self.decode[sy]
        p, q = len(KX), len(KY)
        pair = self.pair
        X = self.basis.unit(sx)
        Y = self.basis.unit(sy)

        def values(J):
            total = pair.algebra.basis.zero()
            for sigma in shuffles2(p, q):
                sgn = perm_sign(sigma)
                argsX = [J[sigma[l] - 1] for l in range(p)]
                argsY = [J[sigma[p + l] - 1] for l in range(q)]
                yval = self.eval_form(Y, argsY)
                if not yval.is_zero():
                    for i in range(p):
                        eth = pair.eth_on_a(yval, pair.algebra.unit(argsX[i]))
                        if not eth.is_zero():
                            total = total + self.eval_form_elem_slot(X, argsX, i, eth).scale(sgn)
                xval = self.eval_form(X, argsX)
                if not xval.is_zero():
                    for j in range(q):
                        eth = pair.eth_on_a(xval, pair.algebra.unit(argsY[j]))
                        if not eth.is_zero():
                            total = total - self.eval_form_elem_slot(Y, argsY, j, eth).scale(sgn)
                if not xval.is_zero() and not yval.is_zero():
                    total = total + pair.pr_b(pair.algebra.bracket(xval, yval)).scale(sgn)
            return total

        result = self.element_from_values(p + q, values)
        self._b2_cache[key] = result
        return result

    def bracket3(self, x: GradedElement, y: GradedElement, z: GradedElement) -> GradedElement:
        """Ternary bracket via the closed three-block shuffle formula."""
        return multilinear(self.basis, lambda syms: self._bracket3_syms(*syms), [x, y, z])

    def _bracket3_syms(self, sx: str, sy: str, sz: str) -> GradedElement:
        key = (sx, sy, sz)
        if key in self._b3_cache:
            return self._b3_cache[key]
        KX, _ = self.decode[sx]
        KY, _ = self.decode[sy]
        KZ, _ = self.decode[sz]
        p, q, r = len(KX), len(KY), len(KZ)
        pair = self.pair
        X = self.basis.unit(sx)
        Y = self.basis.unit(sy)
        Z = self.basis.unit(sz)
        m = p + q + r - 1
        if m < 0:
            return self.zero()

        def beta_of(u: GradedElement, v: GradedElement) -> GradedElement:
            if u.is_zero() or v.is_zero():
                return pair.algebra.basis.zero()
            return pair.beta(u, v)

        def values(J):
            total = pair.algebra.basis.zero()
            s1 = -1 if (p + q + 1) % 2 else 1
            for sigma in shuffles3(p, q, r - 1):
                sgn = perm_sign(sigma)
                aX = [J[sigma[l] - 1] for l in range(p)]
                aY = [J[sigma[p + l] - 1] for l in range(q)]
                aZ = [J[sigma[p + q + l] - 1] for l in range(r - 1)]
                bt = beta_of(self.eval_form(X, aX), self.eval_form(Y, aY))
                if not bt.is_zero():
                    total = total + self.eval_form_elem_slot(Z, [None] + aZ, 0, bt).scale(s1 * sgn)
            s2 = -1 if p % 2 else 1
            for tau in shuffles3(p, q - 1, r):
                sgn = perm_sign(tau)
                aX = [J[tau[l] - 1] for l in range(p)]
                aY = [J[tau[p + l] - 1] for l in range(q - 1)]
                aZ = [J[tau[p + q - 1 + l] - 1] for l in range(r)]
                bt = beta_of(self.eval_form(X, aX), self.eval_form(Z, aZ))
                if not bt.is_zero():
                    total = total + self.eval_form_elem_slot(Y, [None] + aY, 0, bt).scale(s2 * sgn)
            for alpha in shuffles3(p - 1, q, r):
                sgn = perm_sign(alpha)
                aX = [J[alpha[l] - 1] for l in range(p - 1)]
                aY = [J[alpha[p - 1 + l] - 1] for l in range(q)]
                aZ = [J[alpha[p - 1 + q + l] - 1] for l in range(r)]
                bt = beta_of(self.eval_form(Y, aY), self.eval_form(Z, aZ))
                if not bt.is_zero():
                    total = total - self.eval_form_elem_slot(X, [None] + aX, 0, bt).scale(sgn)
            return total

        result = self.element_from_values(m, values) if m <= len(pair.a_names) else self.zero()
        self._b3_cache[key] = result
        return result

    # -- the same brackets through the generating relations ------------------

    def bracket2_generated(self, x: GradedElement, y: GradedElement) -> GradedElement:
        """Binary bracket by mechanical reduction through the Leibniz relations."""
        return multilinear(self.basis, lambda syms: self._b2_gen(*syms), [x, y])

    def _b2_gen(self, sx: str, sy: str) -> GradedElement:
        key = (sx, sy)
        if key in self._b2_gen_cache:
            return self._b2_gen_cache[key]
        KX, bX = self.decode[sx]
        KY, bY = self.decode[sy]
        p, q = len(KX), len(KY)
        pair = self.pair
        if q > 0:
            # strip the wedge factor off the second slot
            omega = self.scalar_form(KY)
            X = self.basis.unit(sx)
            term1 = self.module_product(self.anchor1(X, omega), self.from_b_element(pair.algebra.unit(bY)))
            rec = self._b2_gen(sx, form_name((), bY))
            sgn = -1 if (q * p) % 2 else 1
            result = term1 + self.module_product(omega, rec).scale(sgn)
        elif p > 0:
            # graded swap, then strip; the second slot now has degree 0
            rec = self._b2_gen(sy, sx)
            result = -rec
        else:
            result = self.from_b_element(pair.bracket_b(pair.algebra.unit(bX), pair.algebra.unit(bY)))
        self._b2_gen_cache[key] = result
        return result

    def bracket3_generated(self, x: GradedElement, y: GradedElement, z: GradedElement) -> GradedElement:
        return multilinear(self.basis, lambda syms: self._b3_gen(*syms), [x, y, z])

    def _b3_gen(self, sx: str, sy: str, sz: str) -> GradedElement:
        key = (sx, sy, sz)
        if key in self._b3_gen_cache:
            return self._b3_gen_cache[key]
        KX, bX = self.decode[sx]
        KY, bY = self.decode[sy]
        KZ, bZ = self.decode[sz]
        p, q, r = len(KX), len(KY), len(KZ)
        if r > 0:
            # strip the wedge factor off the third slot
            omega = self.scalar_form(KZ)
            X = self.basis.unit(sx)
            Y = self.basis.unit(sy)
            term1 = self.module_product(self.anchor2(X, Y, omega), self.from_b_element(self.pair.algebra.unit(bZ)))
            rec = self._b3_gen(sx, sy, form_name((), bZ))
            sgn = -1 if (r * (p + q + 1)) % 2 else 1
            result = term1 + self.module_product(omega, rec).scale(sgn)
        elif q > 0:
            # swap slots two and three (chi sign: -1, third slot has degree 0)
            result = -self._b3_gen(sx, sz, sy)
        elif p > 0:
            # rotate the first slot to the back (chi sign: +1)
            result = self._b3_gen(sy, sz, sx)
        else:
            result = self.zero()
        self._b3_gen_cache[key] = result
        return result

    # -- assembly ------------------------------------------------------------

    def structure(self) -> LInfinityStructure:
        """The full bracket structure, with tables built from the closed formulas."""
        if self._structure is not None:
            return self._structure
        names = self.basis.names
        d_table = MultiTable(self.basis, 1, "skew", 1)
        for nm in names:
            val = self.d_bott(self.basis.unit(nm))
            if not val.is_zero():
                d_table.set_value((nm,), val)
        b2 = MultiTable(self.basis, 2, "skew", 0)
        for key in iter_normalized_tuples(self.basis, 2, symmetric=False):
            val = self._bracket2_syms(*key)
            if not val.is_zero():
                b2.set_value(key, val)
        b3 = MultiTable(self.basis, 3, "skew", -1)
        for key in iter_normalized_tuples(self.basis, 3, symmetric=False):
            val = self._bracket3_syms(*key)
            if not val.is_zero():
                b3.set_value(key, val)
        brackets = {}
        if not d_table.is_zero():
            brackets[1] = d_table
        if not b2.is_zero():
            brackets[2] = b2
        if not b3.is_zero():
            brackets[3] = b3
        self._structure = LInfinityStructure(self.basis, brackets, arity_cap=3)
        return self._structure


def build_l3(pair: LiePair) -> L3Pair:
    """Assemble the differential and both higher brackets for a validated pair."""
    return L3Pair(pair)
