"""Reference evaluators of the bracket and action tables, element by element.

The package computes every table entry from its symbols: a unit form (K, b)
is nonzero on an A-tuple only when the tuple's letters are K, so each
shuffle sum collapses to a loop over the letters of one form.  This module
keeps the definitions those loops were derived from, slow and obviously
faithful, for the tests to compare against:

* the bracket of L as a skew ``MultiTable`` and the Jacobi check evaluated
  element by element on it (``lie_table``, ``validate_lie``), against which
  the package's sum over ``LieAlgebra.lie`` is compared; the bracket of two
  elements of L (``lie_bracket``, once ``LieAlgebra.bracket``) and a
  derivation applied to an element (``apply``, once ``Derivation.apply``),
  both extended from the package's rows through ``multilinear``: the package
  holds a derivation as its matrix and brackets no two elements of L, and
  its matrix products (``Derivation.commutator``, ``deraction.ad``) are
  compared with these;
* the projections onto A and B (``pr_a``, ``pr_b``, once methods of
  ``LiePair``), the splitting maps bott, eth, beta and pr_B[ , ] on
  elements, unit and scalar forms (the forms with no B leg, whose basis
  ``scalar_basis`` and ``scalar_decode`` build from A's names, the empty
  wedge named "1"), B as the degree-0 forms, and the
  package's differential on elements (``d_closed``), which the package
  itself only reads symbol by symbol;
* the sort of a wedge word of A names by its inversions (``sort_wedge``),
  which every evaluator below uses and against which the package's bitmask
  merge sign ``L3Pair._sign`` is tested;
* the per-tuple closed formulas: for every increasing A-tuple J of the right
  length, every shuffle of J into argument blocks, the forms evaluated on
  their blocks (``bracket2_syms``, ``bracket3_syms``, ``act1``,
  ``act2_symbols`` and the differential ``d_bott``);
* the element-level form calculus (values of forms on A-tuples, wedge,
  interior, module product, the dual eth action, the anchors and the scalar
  differential, and the operators varrho1 and varrho2 on scalar forms that
  pair with the action maps in its module rules) and the mechanical
  reduction of both brackets through the generating Leibniz relations
  (``GeneratedBrackets``): the package compares its closed formulas with
  Voronov's derived brackets of the Chevalley-Eilenberg field, and the tests
  compare both with this reduction;
* the package's ternary bracket and the Leibniz reduction extended
  multilinearly to elements (``bracket3``, ``bracket2_generated``,
  ``bracket3_generated``, the last two on one ``GeneratedBrackets`` per pair,
  kept for the last few pairs so that its memo serves every call).
"""

from functools import lru_cache
from itertools import combinations

from l3pair.graded import MultiTable
from l3pair.liepair import form_name
from l3pair.vectors import GradedBasis, GradedElement, multilinear
from shuffle_oracle import perm_sign, shuffles2, shuffles3


# --- the bracket of L as a table ------------------------------------------------

def lie_table(alg) -> MultiTable:
    """The bracket of L as a skew arity-2 table of degree 0, built from ``alg.lie``."""
    table = MultiTable(alg.basis, 2, "skew", 0)
    for (x, y), out in alg.lie.items():
        if alg.basis.index(x) < alg.basis.index(y):
            table.set_value((x, y), GradedElement(alg.basis, out))
    return table


def lie_bracket(alg, u: GradedElement, v: GradedElement) -> GradedElement:
    """[u, v] in L, extended bilinearly from the rows of ``alg.lie``."""
    if u.space != alg.basis or v.space != alg.basis:
        raise ValueError("argument lives in the wrong space")
    return multilinear(alg.basis, lambda syms: GradedElement(alg.basis, alg.lie.get(syms, {})), [u, v])


def apply(delta, x: GradedElement) -> GradedElement:
    """delta(x), extended linearly from the rows of ``delta.images``."""
    basis = delta.algebra.basis
    return multilinear(basis, lambda syms: GradedElement(basis, delta.images[syms[0]]), [x])


def validate_lie(alg) -> list:
    """Triples of basis names where the Jacobi identity fails, evaluated element by element."""
    table = lie_table(alg)
    bad = []
    names = alg.names
    for i, j, k in combinations(range(len(names)), 3):
        x, y, z = names[i], names[j], names[k]
        jac = (
            table.evaluate([table.eval_basis((x, y)), alg.unit(z)])
            + table.evaluate([table.eval_basis((y, z)), alg.unit(x)])
            + table.evaluate([table.eval_basis((z, x)), alg.unit(y)])
        )
        if not jac.is_zero():
            bad.append((x, y, z))
    return bad


# --- the splitting maps and forms on elements ---------------------------------

def pr_a(pair, elem: GradedElement) -> GradedElement:
    """The component of an element of L in A."""
    return GradedElement(pair.algebra.basis, {n: c for n, c in elem.coords.items() if n in pair.a_names})


def pr_b(pair, elem: GradedElement) -> GradedElement:
    """The component of an element of L in B."""
    return GradedElement(pair.algebra.basis, {n: c for n, c in elem.coords.items() if n in pair.b_names})


def require_support(elem: GradedElement, names, what: str):
    allowed = set(names)
    if any(n not in allowed for n in elem.coords):
        raise ValueError("%s must be supported on %s" % (what, sorted(allowed)))


def bott(pair, a: GradedElement, b: GradedElement) -> GradedElement:
    """The flat A-action on B: pr_B [a, b]."""
    require_support(a, pair.a_names, "first argument")
    require_support(b, pair.b_names, "second argument")
    return pr_b(pair, lie_bracket(pair.algebra, a, b))


def eth_on_a(pair, b: GradedElement, a: GradedElement) -> GradedElement:
    """pr_A [b, a]: the B-operation on A induced by the splitting."""
    require_support(b, pair.b_names, "first argument")
    require_support(a, pair.a_names, "second argument")
    return pr_a(pair, lie_bracket(pair.algebra, b, a))


def beta(pair, b1: GradedElement, b2: GradedElement) -> GradedElement:
    """The A-valued pairing on B: pr_A [b1, b2]."""
    require_support(b1, pair.b_names, "first argument")
    require_support(b2, pair.b_names, "second argument")
    return pr_a(pair, lie_bracket(pair.algebra, b1, b2))


def bracket_b(pair, b1: GradedElement, b2: GradedElement) -> GradedElement:
    """The product on B: pr_B [b1, b2]."""
    require_support(b1, pair.b_names, "first argument")
    require_support(b2, pair.b_names, "second argument")
    return pr_b(pair, lie_bracket(pair.algebra, b1, b2))


def form(l3, k_names, b_name, coeff=1) -> GradedElement:
    """coeff times the unit form (K, b)."""
    return l3.basis.unit(form_name(tuple(k_names), b_name)).scale(coeff)


@lru_cache(maxsize=64)
def _scalar_forms(a_names: tuple) -> tuple:
    decode = {form_name(K): K for k in range(len(a_names) + 1) for K in combinations(a_names, k)}
    return decode, GradedBasis((nm, len(K)) for nm, K in decode.items())


def scalar_decode(l3) -> dict:
    """{name: increasing tuple of A-names} of the scalar forms (no B leg), the empty wedge named "1"."""
    return _scalar_forms(tuple(l3.pair.a_names))[0]


def scalar_basis(l3) -> GradedBasis:
    """The scalar forms as a graded basis, a form of degree k in degree k."""
    return _scalar_forms(tuple(l3.pair.a_names))[1]


def scalar_form(l3, k_names, coeff=1) -> GradedElement:
    return scalar_basis(l3).unit(form_name(tuple(k_names))).scale(coeff)


def from_b_element(l3, v: GradedElement) -> GradedElement:
    """Embed an element supported on B as a degree-0 form."""
    require_support(v, l3.pair.b_names, "element")
    return GradedElement(l3.basis, dict(v.coords))


def d_closed(l3, x: GradedElement) -> GradedElement:
    """The package's differential (``L3Pair._d_syms``, one letter loop per symbol) on an element."""
    return multilinear(l3.basis, lambda syms: l3.basis.element(l3._d_syms(syms[0])), [x])


# --- evaluation of forms on argument tuples ----------------------------------

def sort_wedge(l3, names):
    """(sign, increasing tuple) of a wedge word (tuple or list) of A names; (0, None) if a name
    repeats.  A names have degree 0, so the sign is that of the word's inversions, counted here
    pair by pair on the names' basis order: the package's bitmask sign is tested against it."""
    rank = {nm: i for i, nm in enumerate(l3.pair.a_names)}
    keys = [rank[nm] for nm in names]
    if len(set(keys)) < len(keys):
        return 0, None
    inversions = sum(1 for i, k in enumerate(keys) for later in keys[i + 1:] if later < k)
    return (-1 if inversions & 1 else 1), tuple(sorted(names, key=rank.__getitem__))



def eval_scalar(l3, omega: GradedElement, arg_names):
    """Value of a scalar form on a tuple of A basis names."""
    s, key = sort_wedge(l3, arg_names)
    total = 0
    if s:
        for nm, c in omega.coords.items():
            if scalar_decode(l3)[nm] == key:
                total = total + c * s
    return total


def eval_form(l3, x: GradedElement, arg_names) -> GradedElement:
    """Value of a B-valued form on a tuple of A basis names, in B."""
    s, key = sort_wedge(l3, arg_names)
    out = {}
    if s:
        for nm, c in x.coords.items():
            K, b = l3.decode[nm]
            if K == key:
                out[b] = out.get(b, 0) + (c if s == 1 else -c)
    return GradedElement(l3.pair.algebra.basis, out)


def eval_form_elem_slot(l3, x: GradedElement, arg_names, slot: int, elem: GradedElement) -> GradedElement:
    """Evaluate with an A-element substituted into one argument slot."""
    args = list(arg_names)
    return multilinear(
        l3.pair.algebra.basis, lambda a: eval_form(l3, x, args[:slot] + list(a) + args[slot + 1:]), [elem]
    )


def element_from_values(l3, k: int, values) -> GradedElement:
    """Rebuild a degree-k form from its values on increasing A-tuples."""
    coords = {}
    for K in combinations(l3.pair.a_names, k):
        val = values(K)
        for b, c in val.coords.items():
            coords[form_name(K, b)] = c
    return GradedElement(l3.basis, coords)


# --- exterior algebra on scalar forms ----------------------------------------

def wedge(l3, w1: GradedElement, w2: GradedElement) -> GradedElement:
    def value(syms):
        s, K = sort_wedge(l3, scalar_decode(l3)[syms[0]] + scalar_decode(l3)[syms[1]])
        return scalar_form(l3, K, s) if s else scalar_basis(l3).zero()

    return multilinear(scalar_basis(l3), value, [w1, w2])


def module_product(l3, omega: GradedElement, x: GradedElement) -> GradedElement:
    """Left module action of scalar forms on B-valued forms."""

    def value(syms):
        K2, b = l3.decode[syms[1]]
        s, K = sort_wedge(l3, scalar_decode(l3)[syms[0]] + K2)
        return form(l3, K, b, s) if s else l3.zero()

    return multilinear(l3.basis, value, [omega, x])


def interior(l3, a_elem: GradedElement, omega: GradedElement) -> GradedElement:
    """Left-slot contraction of a scalar form by an A-element."""

    def value(syms):
        K = scalar_decode(l3)[syms[1]]
        if syms[0] not in K:
            return scalar_basis(l3).zero()
        pos = K.index(syms[0])
        return scalar_form(l3, K[:pos] + K[pos + 1:], -1 if pos % 2 else 1)

    return multilinear(scalar_basis(l3), value, [a_elem, omega])


# --- the splitting operations on forms ---------------------------------------

def eth_scalar(l3, b_elem: GradedElement, omega: GradedElement) -> GradedElement:
    """Degree-0 derivation of the wedge algebra dual to eth on A.

    On a generator: <eth_b u, a> = -<u, eth_b a> (point base), then
    extended by the Leibniz rule to all wedge words.
    """
    pair = l3.pair

    def value(syms):
        K = scalar_decode(l3)[syms[0]]
        coords = {}
        for slot, gen in enumerate(K):
            for a_nm in pair.a_names:
                eth = eth_on_a(pair, b_elem, pair.algebra.unit(a_nm))
                coeff = eth.coords.get(gen)
                if not coeff:
                    continue
                replaced = K[:slot] + (a_nm,) + K[slot + 1:]
                s, merged = sort_wedge(l3, replaced)
                if s:
                    out = form_name(merged)
                    coords[out] = coords.get(out, 0) - s * coeff
        return GradedElement(scalar_basis(l3), coords)

    return multilinear(scalar_basis(l3), value, [omega])


def d_scalar(l3, omega: GradedElement) -> GradedElement:
    """Chevalley-Eilenberg differential on scalar A-forms (point base)."""
    pair = l3.pair

    def value(syms):
        unit = scalar_basis(l3).unit(syms[0])
        k = len(scalar_decode(l3)[syms[0]])
        coords = {}
        for J in combinations(pair.a_names, k + 1):
            total = 0
            for i, j in combinations(range(k + 1), 2):
                br = GradedElement(pair.algebra.basis, pair.algebra.lie.get((J[i], J[j]), {}))
                rest = tuple(J[p] for p in range(k + 1) if p not in (i, j))
                sgn = -1 if (i + j) % 2 else 1  # (-1)^(i+j), 1-based indices
                for a_nm, ca in br.coords.items():
                    val = eval_scalar(l3, unit, (a_nm,) + rest)
                    if val:
                        total = total + sgn * ca * val
            if total:
                coords[form_name(J)] = total
        return GradedElement(scalar_basis(l3), coords)

    return multilinear(scalar_basis(l3), value, [omega])


def d_bott(l3, x: GradedElement) -> GradedElement:
    """Chevalley-Eilenberg differential of the flat A-action on B-forms."""
    pair = l3.pair

    def value(syms):
        unit = l3.basis.unit(syms[0])
        k = len(l3.decode[syms[0]][0])

        def values(J):
            total = pair.algebra.basis.zero()
            for i in range(k + 1):
                val = eval_form(l3, unit, J[:i] + J[i + 1:])
                if not val.is_zero():
                    sgn = 1 if i % 2 == 0 else -1  # (-1)^(i+1), 1-based
                    total = total + bott(pair, pair.algebra.unit(J[i]), val).scale(sgn)
            for i, j in combinations(range(k + 1), 2):
                br = GradedElement(pair.algebra.basis, pair.algebra.lie.get((J[i], J[j]), {}))
                rest = [J[p] for p in range(k + 1) if p not in (i, j)]
                sgn = -1 if (i + j) % 2 else 1  # (-1)^(i+j), 1-based indices
                total = total + eval_form_elem_slot(l3, unit, [None] + rest, 0, br).scale(sgn)
            return total

        return element_from_values(l3, k + 1, values)

    return multilinear(l3.basis, value, [x])


# --- anchors -------------------------------------------------------------------

def anchor1(l3, x: GradedElement, omega: GradedElement) -> GradedElement:
    """rho_1(lambda (x) b) omega = lambda . (eth_b omega)."""

    def value(syms):
        K, b = l3.decode[syms[0]]
        return wedge(l3, scalar_form(l3, K), eth_scalar(l3, l3.pair.algebra.unit(b), omega))

    return multilinear(scalar_basis(l3), value, [x])


def anchor2(l3, x: GradedElement, y: GradedElement, omega: GradedElement) -> GradedElement:
    """rho_2(l (x) b, l' (x) b') omega = (-1)^(|l|+|l'|+1) (l ^ l') . (beta(b,b') -| omega)."""

    def value(syms):
        (K1, b1), (K2, b2) = l3.decode[syms[0]], l3.decode[syms[1]]
        beta_b = beta(l3.pair, l3.pair.algebra.unit(b1), l3.pair.algebra.unit(b2))
        if beta_b.is_zero():
            return scalar_basis(l3).zero()
        sgn = -1 if (len(K1) + len(K2) + 1) % 2 else 1
        lam = wedge(l3, scalar_form(l3, K1), scalar_form(l3, K2))
        return wedge(l3, lam, interior(l3, beta_b, omega)).scale(sgn)

    return multilinear(scalar_basis(l3), value, [x, y])


# --- binary and ternary brackets: closed shuffle formulas, per tuple ---------

def bracket2_syms(l3, sx: str, sy: str) -> GradedElement:
    KX, bX = l3.decode[sx]
    KY, bY = l3.decode[sy]
    p, q = len(KX), len(KY)
    pair = l3.pair
    X = l3.basis.unit(sx)
    Y = l3.basis.unit(sy)

    def values(J):
        total = pair.algebra.basis.zero()
        for sigma in shuffles2(p, q):
            sgn = perm_sign(sigma)
            argsX = [J[sigma[l] - 1] for l in range(p)]
            argsY = [J[sigma[p + l] - 1] for l in range(q)]
            yval = eval_form(l3, Y, argsY)
            if not yval.is_zero():
                for i in range(p):
                    eth = eth_on_a(pair, yval, pair.algebra.unit(argsX[i]))
                    if not eth.is_zero():
                        total = total + eval_form_elem_slot(l3, X, argsX, i, eth).scale(sgn)
            xval = eval_form(l3, X, argsX)
            if not xval.is_zero():
                for j in range(q):
                    eth = eth_on_a(pair, xval, pair.algebra.unit(argsY[j]))
                    if not eth.is_zero():
                        total = total - eval_form_elem_slot(l3, Y, argsY, j, eth).scale(sgn)
            if not xval.is_zero() and not yval.is_zero():
                total = total + pr_b(pair, lie_bracket(pair.algebra, xval, yval)).scale(sgn)
        return total

    return element_from_values(l3, p + q, values)


def bracket3_syms(l3, sx: str, sy: str, sz: str) -> GradedElement:
    KX, _ = l3.decode[sx]
    KY, _ = l3.decode[sy]
    KZ, _ = l3.decode[sz]
    p, q, r = len(KX), len(KY), len(KZ)
    pair = l3.pair
    X = l3.basis.unit(sx)
    Y = l3.basis.unit(sy)
    Z = l3.basis.unit(sz)
    m = p + q + r - 1
    if m < 0:
        return l3.zero()

    def beta_of(u: GradedElement, v: GradedElement) -> GradedElement:
        if u.is_zero() or v.is_zero():
            return pair.algebra.basis.zero()
        return beta(pair, u, v)

    def values(J):
        total = pair.algebra.basis.zero()
        s1 = -1 if (p + q + 1) % 2 else 1
        for sigma in shuffles3(p, q, r - 1):
            sgn = perm_sign(sigma)
            aX = [J[sigma[l] - 1] for l in range(p)]
            aY = [J[sigma[p + l] - 1] for l in range(q)]
            aZ = [J[sigma[p + q + l] - 1] for l in range(r - 1)]
            bt = beta_of(eval_form(l3, X, aX), eval_form(l3, Y, aY))
            if not bt.is_zero():
                total = total + eval_form_elem_slot(l3, Z, [None] + aZ, 0, bt).scale(s1 * sgn)
        s2 = -1 if p % 2 else 1
        for tau in shuffles3(p, q - 1, r):
            sgn = perm_sign(tau)
            aX = [J[tau[l] - 1] for l in range(p)]
            aY = [J[tau[p + l] - 1] for l in range(q - 1)]
            aZ = [J[tau[p + q - 1 + l] - 1] for l in range(r)]
            bt = beta_of(eval_form(l3, X, aX), eval_form(l3, Z, aZ))
            if not bt.is_zero():
                total = total + eval_form_elem_slot(l3, Y, [None] + aY, 0, bt).scale(s2 * sgn)
        for alpha in shuffles3(p - 1, q, r):
            sgn = perm_sign(alpha)
            aX = [J[alpha[l] - 1] for l in range(p - 1)]
            aY = [J[alpha[p - 1 + l] - 1] for l in range(q)]
            aZ = [J[alpha[p - 1 + q + l] - 1] for l in range(r)]
            bt = beta_of(eval_form(l3, Y, aY), eval_form(l3, Z, aZ))
            if not bt.is_zero():
                total = total - eval_form_elem_slot(l3, X, [None] + aX, 0, bt).scale(sgn)
        return total

    return element_from_values(l3, m, values) if m <= len(pair.a_names) else l3.zero()


# --- the package's routes extended to elements --------------------------------

def bracket3(l3, x: GradedElement, y: GradedElement, z: GradedElement) -> GradedElement:
    """Ternary bracket via the package's closed three-block shuffle formula."""
    return multilinear(l3.basis, lambda syms: l3.basis.element(l3._bracket3_syms(*syms)), [x, y, z])


@lru_cache(maxsize=16)
def generated(l3) -> "GeneratedBrackets":
    """The pair's ``GeneratedBrackets``, kept for the last few pairs so that its memo serves every call."""
    return GeneratedBrackets(l3)


def bracket2_generated(l3, x: GradedElement, y: GradedElement) -> GradedElement:
    """Binary bracket via the reduction through the Leibniz relations (``GeneratedBrackets``)."""
    return generated(l3).bracket2(x, y)


def bracket3_generated(l3, x: GradedElement, y: GradedElement, z: GradedElement) -> GradedElement:
    """Ternary bracket via the reduction through the Leibniz relations (``GeneratedBrackets``)."""
    return generated(l3).bracket3(x, y, z)


# --- the same brackets through the generating relations, on elements ---------

class GeneratedBrackets:
    """Both brackets by mechanical reduction through the Leibniz relations,
    with the anchor, wedge and module-product steps on elements."""

    def __init__(self, l3):
        self.l3 = l3
        self._b2_memo = {}
        self._b3_memo = {}

    def bracket2(self, x: GradedElement, y: GradedElement) -> GradedElement:
        return multilinear(self.l3.basis, lambda syms: self.b2_gen(*syms), [x, y])

    def bracket3(self, x: GradedElement, y: GradedElement, z: GradedElement) -> GradedElement:
        return multilinear(self.l3.basis, lambda syms: self.b3_gen(*syms), [x, y, z])

    def b2_gen(self, sx: str, sy: str) -> GradedElement:
        l3 = self.l3
        key = (sx, sy)
        if key in self._b2_memo:
            return self._b2_memo[key]
        KX, bX = l3.decode[sx]
        KY, bY = l3.decode[sy]
        p, q = len(KX), len(KY)
        pair = l3.pair
        if q > 0:
            # strip the wedge factor off the second slot
            omega = scalar_form(l3, KY)
            X = l3.basis.unit(sx)
            term1 = module_product(l3, anchor1(l3, X, omega), from_b_element(l3, pair.algebra.unit(bY)))
            rec = self.b2_gen(sx, form_name((), bY))
            sgn = -1 if (q * p) % 2 else 1
            result = term1 + module_product(l3, omega, rec).scale(sgn)
        elif p > 0:
            # graded swap, then strip; the second slot now has degree 0
            rec = self.b2_gen(sy, sx)
            result = -rec
        else:
            result = from_b_element(l3, bracket_b(pair, pair.algebra.unit(bX), pair.algebra.unit(bY)))
        self._b2_memo[key] = result
        return result

    def b3_gen(self, sx: str, sy: str, sz: str) -> GradedElement:
        l3 = self.l3
        key = (sx, sy, sz)
        if key in self._b3_memo:
            return self._b3_memo[key]
        KX, bX = l3.decode[sx]
        KY, bY = l3.decode[sy]
        KZ, bZ = l3.decode[sz]
        p, q, r = len(KX), len(KY), len(KZ)
        if r > 0:
            # strip the wedge factor off the third slot
            omega = scalar_form(l3, KZ)
            X = l3.basis.unit(sx)
            Y = l3.basis.unit(sy)
            term1 = module_product(l3, anchor2(l3, X, Y, omega), from_b_element(l3, l3.pair.algebra.unit(bZ)))
            rec = self.b3_gen(sx, sy, form_name((), bZ))
            sgn = -1 if (r * (p + q + 1)) % 2 else 1
            result = term1 + module_product(l3, omega, rec).scale(sgn)
        elif q > 0:
            # swap slots two and three (chi sign: -1, third slot has degree 0)
            result = -self.b3_gen(sx, sz, sy)
        elif p > 0:
            # rotate the first slot to the back (chi sign: +1)
            result = self.b3_gen(sy, sz, sx)
        else:
            result = l3.zero()
        self._b3_memo[key] = result
        return result


# --- the Der(L) action maps, per tuple -----------------------------------------

def act1(l3, delta, x: GradedElement) -> GradedElement:
    """Degree-0 action on forms: conjugation of the form by delta through the splitting."""
    pair = l3.pair

    def value(syms):
        K, b = l3.decode[syms[0]]
        if not K:
            return from_b_element(l3, pr_b(pair, apply(delta, pair.algebra.unit(b))))
        unit = l3.basis.unit(syms[0])

        def values(J):
            total = pair.algebra.basis.zero()
            for j in range(len(K)):
                slot = pr_a(pair, apply(delta, pair.algebra.unit(J[j])))
                if not slot.is_zero():
                    total = total - eval_form_elem_slot(l3, unit, J, j, slot)
            val = eval_form(l3, unit, J)
            if not val.is_zero():
                total = total + pr_b(pair, apply(delta, val))
            return total

        return element_from_values(l3, len(K), values)

    return multilinear(l3.basis, value, [x])


def act2_symbols(l3, delta, sx: str, sy: str) -> GradedElement:
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
        return pr_a(pair, apply(delta, v))

    def values(J):
        total = pair.algebra.basis.zero()
        s1 = -1 if (i + 1) % 2 else 1
        for sigma in shuffles2(i, j - 1):
            sgn = perm_sign(sigma)
            aX = [J[sigma[l] - 1] for l in range(i)]
            aY = [J[sigma[i + l] - 1] for l in range(j - 1)]
            inner = pra_delta(eval_form(l3, X, aX))
            if not inner.is_zero():
                total = total + eval_form_elem_slot(l3, Y, [None] + aY, 0, inner).scale(s1 * sgn)
        for sigma in shuffles2(i - 1, j):
            sgn = perm_sign(sigma)
            aX = [J[sigma[l] - 1] for l in range(i - 1)]
            aY = [J[sigma[i - 1 + l] - 1] for l in range(j)]
            inner = pra_delta(eval_form(l3, Y, aY))
            if not inner.is_zero():
                total = total + eval_form_elem_slot(l3, X, [None] + aX, 0, inner).scale(sgn)
        return total

    return element_from_values(l3, m, values)


# --- the scalar-form operators paired with the action ------------------------

def varrho1(l3, delta, omega: GradedElement) -> GradedElement:
    """Degree-0 operator on scalar forms paired with the degree-0 action."""
    pair = l3.pair

    def value(syms):
        unit = scalar_basis(l3).unit(syms[0])
        k = len(scalar_decode(l3)[syms[0]])
        coords = {}
        for J in combinations(pair.a_names, k):
            total = 0
            for j in range(k):
                slot = pr_a(pair, apply(delta, pair.algebra.unit(J[j])))
                for a_nm, ca in slot.coords.items():
                    args = list(J)
                    args[j] = a_nm
                    val = eval_scalar(l3, unit, args)
                    if val:
                        total = total - ca * val
            if total:
                coords[form_name(J)] = total
        return GradedElement(scalar_basis(l3), coords)

    return multilinear(scalar_basis(l3), value, [omega])


def varrho2(l3, delta, x: GradedElement, omega: GradedElement) -> GradedElement:
    """Degree (|x|-1) operator on scalar forms paired with the degree -1 action."""
    pair = l3.pair

    def value(syms):
        X, w_unit = l3.basis.unit(syms[0]), scalar_basis(l3).unit(syms[1])
        i, k = len(l3.decode[syms[0]][0]), len(scalar_decode(l3)[syms[1]])
        if i + k == 0:
            return scalar_basis(l3).zero()
        s1 = -1 if (i + 1) % 2 else 1
        coords = {}
        for J in combinations(pair.a_names, i + k - 1):
            total = 0
            for sigma in shuffles2(i, k - 1):
                sgn = perm_sign(sigma)
                aX = [J[sigma[l] - 1] for l in range(i)]
                aW = [J[sigma[i + l] - 1] for l in range(k - 1)]
                inner = pr_a(pair, apply(delta, eval_form(l3, X, aX)))
                for a_nm, ca in inner.coords.items():
                    val = eval_scalar(l3, w_unit, [a_nm] + aW)
                    if val:
                        total = total + s1 * sgn * ca * val
            if total:
                coords[form_name(J)] = total
        return GradedElement(scalar_basis(l3), coords)

    return multilinear(scalar_basis(l3), value, [x, omega])
