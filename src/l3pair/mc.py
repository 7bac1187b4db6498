"""Maurer-Cartan elements with nilpotent coefficients and gauge actions.

Coefficients live in Q[t]/(t^(N+1)); a Maurer-Cartan element is a degree-1
form with coefficients in the ideal (t) killing the curvature expression

    d xi + 1/2 [xi, xi] + 1/6 [xi, xi, xi] = 0          (arity cap 3).

Two gauge recursions act on such elements: the classical one driven by a
degree-0 form b, and the derivation-driven one in which a derivation
(with coefficients in the ideal) acts through its curvature and action maps.
Both series terminate because the k-th correction term has ideal valuation
at least k, which is asserted at every step.  For inner derivations given by
bracketing with b the two recursions agree exactly; ``check_gauge_coincidence``
verifies that coincidence together with the three bridge identities that
drive it.  The derivation-driven recursion reads the {arity: table} map of
a one-derivation ``deraction.ActionMaps``, the curvature of the derivation
as its arity-0 table; for ad_b that is a linear combination of the
per-symbol tables each context builds once.

The curvature, the twisted brackets and the twisted action maps are one
series, sum_j sign^j / j! l_{j+n}(xi^j, args), over the brackets (sign 1) or
over that action map (sign -1).

``mc_extend`` manufactures Maurer-Cartan elements order by order from a
closed degree-1 seed (``closed_seed``), reporting the first obstruction when
the linear solve fails.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import factorial

from . import linalg
from .deraction import ActionMaps, Derivation, ad, differential_matrix
from .graded import GradedElement
from .liepair import L3Pair
from .linfty import iter_normalized_tuples
from .scalars import DEFAULT_ORDER, TruncatedPoly, ideal_valuation


class MCContext:
    """A bracket structure together with a coefficient truncation order."""

    def __init__(self, l3: L3Pair, order: int = DEFAULT_ORDER):
        self.l3 = l3
        self.order = order
        self.structure = l3.structure()
        self._ad_symbols = None

    def ad_symbols(self) -> ActionMaps:
        """Tabulated actions of ad(b), one per complement symbol b, built on first use."""
        if self._ad_symbols is None:
            alg = self.l3.pair.algebra
            self._ad_symbols = ActionMaps(self.l3, [ad(alg, alg.unit(b)) for b in self.l3.pair.b_names])
        return self._ad_symbols

    def t(self) -> TruncatedPoly:
        return TruncatedPoly.gen(self.order)

    def const(self, c) -> TruncatedPoly:
        return TruncatedPoly.const(self.order, c)

    def lift(self, elem: GradedElement, power: int = 1) -> GradedElement:
        """Tensor a rational element with t^power."""
        if power > self.order:
            return self.l3.zero()
        tp = TruncatedPoly(self.order, [0] * power + [1])
        return elem.scale(tp)

    def require_ideal(self, elem: GradedElement, what: str = "element"):
        for nm, c in elem.coords.items():
            if not isinstance(c, TruncatedPoly) or c.order != self.order:
                raise ValueError("%s must have order-%d coefficients" % (what, self.order))
            if not c.in_ideal():
                raise ValueError("%s has a nonzero constant term at %r" % (what, nm))

    def element_valuation(self, elem: GradedElement) -> int:
        """Minimum coefficient valuation; order+1 for the zero element."""
        vals = [ideal_valuation(c) for c in elem.coords.values()]
        return min(vals) if vals else self.order + 1


def mc_defect(ctx: MCContext, xi: GradedElement) -> GradedElement:
    """The curvature of a degree-1 element with ideal coefficients."""
    ctx.require_ideal(xi, "Maurer-Cartan candidate")
    if not xi.is_zero() and xi.degree() != 1:
        raise ValueError("Maurer-Cartan candidates have degree 1")
    return _twisted(ctx, ctx.structure.brackets, xi, [])


def _twisted(ctx: MCContext, tables: dict, xi: GradedElement, args, sign: int = 1) -> GradedElement:
    """sum_j sign^j / j! tables[j + n](xi^j, args) over the stored arities, n = len(args).

    With the structure's brackets and sign 1 this is the xi-twisted bracket
    (the curvature when args is empty); with an action's maps, the curvature
    as the arity-0 table, and sign -1 it is the twisted action of gauge_h.
    """
    total = ctx.l3.zero()
    for j in range(max(tables, default=0) - len(args) + 1):
        table = tables.get(j + len(args))
        if table is None or table.is_zero():
            continue
        term = table.evaluate([xi] * j + list(args))
        weight = Fraction(sign**j, factorial(j))
        total = total + (term if weight == 1 else term.scale(weight))
    return total


class MCElement:
    """A degree-1 element with ideal coefficients satisfying the curvature
    equation (checked at construction unless explicitly waived)."""

    def __init__(self, ctx: MCContext, value: GradedElement, check: bool = True):
        ctx.require_ideal(value, "Maurer-Cartan element")
        if not value.is_zero() and value.degree() != 1:
            raise ValueError("Maurer-Cartan elements have degree 1")
        if check:
            defect = mc_defect(ctx, value)
            if not defect.is_zero():
                raise ValueError("curvature equation fails: %r" % (defect,))
        self.ctx = ctx
        self.value = value

    def __eq__(self, other):
        return isinstance(other, MCElement) and self.value == other.value

    def __repr__(self):
        return "MCElement(%r)" % (self.value,)


def twisted_bracket(ctx: MCContext, xi: GradedElement, arity: int, args) -> GradedElement:
    """Bracket of the xi-deformed structure: insert powers of xi up to the cap."""
    if arity < 1:
        raise ValueError("arity must be >= 1")
    if len(args) != arity:
        raise ValueError("expected %d arguments, got %d" % (arity, len(args)))
    return _twisted(ctx, ctx.structure.brackets, xi, args)


def _compositions(k: int, parts: int):
    """Ordered tuples of positive integers with the given sum."""
    if parts == 1:
        yield (k,)
        return
    for first in range(1, k - parts + 2):
        for rest in _compositions(k - first, parts - 1):
            yield (first,) + rest


def _gauge_series(ctx: MCContext, xv: GradedElement, term) -> MCElement:
    """xv - sum_k e_k / k! for the corrections e_1 = term([]) and

      e_{k+1} = sum_{n=1..min(k,2)} 1/n! sum_{k_1+...+k_n=k} k!/(k_1!...k_n!)
                term([e_{k_1}, ..., e_{k_n}]),

    asserting that e_k has ideal valuation at least k.
    """
    e = {1: term([])}
    if ctx.element_valuation(e[1]) < 1:
        raise AssertionError("valuation of the first correction dropped below 1")
    for k in range(1, ctx.order):
        total = ctx.l3.zero()
        for n in range(1, min(k, 2) + 1):
            outer = Fraction(1, factorial(n))
            for comp in _compositions(k, n):
                weight = outer * factorial(k)
                for ki in comp:
                    weight /= factorial(ki)
                total = total + term([e[ki] for ki in comp]).scale(weight)
        e[k + 1] = total
        if ctx.element_valuation(e[k + 1]) < k + 1:
            raise AssertionError("valuation of correction %d dropped below %d" % (k + 1, k + 1))
    out = xv
    for k, ek in e.items():
        out = out - ek.scale(Fraction(1, factorial(k)))
    return MCElement(ctx, out)


def gauge_getzler(ctx: MCContext, b: GradedElement, xi: MCElement) -> MCElement:
    """Gauge action of a degree-0 form with ideal coefficients.

    The first correction is the twisted differential of b; the recursion

      e_{k+1} = sum_{n=1..k} 1/n! sum_{k_1+...+k_n=k} k!/(k_1!...k_n!)
                [b, e_{k_1}, ..., e_{k_n}]^xi_{n+1}

    terminates because e_k has ideal valuation at least k (asserted).
    """
    ctx.require_ideal(b, "gauge parameter")
    if not b.is_zero() and b.degree() != 0:
        raise ValueError("gauge parameters have degree 0")
    xv = xi.value
    return _gauge_series(ctx, xv, lambda args: twisted_bracket(ctx, xv, len(args) + 1, [b] + args))


def ad_b_action(ctx: MCContext, b: GradedElement) -> ActionMaps:
    """Tabulated action of ad_b, combined linearly from the per-symbol tables."""
    ctx.require_ideal(b, "bracketing parameter")
    b_names = ctx.l3.pair.b_names
    coeffs = [0] * len(b_names)
    for nm, c in b.coords.items():
        K, b_sym = ctx.l3.decode[nm]
        if K:
            raise ValueError("bracketing parameters have degree 0")
        coeffs[b_names.index(b_sym)] = c
    return ctx.ad_symbols().combination(coeffs)


def gauge_h(ctx: MCContext, delta, xi: MCElement) -> MCElement:
    """Gauge action of a derivation with ideal coefficients.

    The first correction is kappa(delta) - delta |> xi + 1/2 delta |> (xi, xi);
    later corrections feed earlier ones back through the action maps with
    alternating xi insertions.  The series is finite: actions with three or
    more form arguments vanish and the k-th correction has valuation at
    least k (asserted).

    ``delta`` may be a Derivation with ideal coefficients, or a
    one-derivation ActionMaps holding its tabulated action (the fast path
    for inner derivations, see ``ad_b_action``).
    """
    if isinstance(delta, Derivation):
        for nm in delta.algebra.names:
            ctx.require_ideal(delta.images[nm], "derivation parameter image of %r" % (nm,))
        action = ActionMaps(ctx.l3, [delta])
    elif isinstance(delta, ActionMaps) and delta.dim() == 1:
        action = delta
    else:
        raise TypeError("expected a Derivation or a one-derivation ActionMaps")
    maps = action.maps[0]
    ctx.require_ideal(maps[0].evaluate([]), "curvature of the derivation parameter")
    xv = xi.value
    return _gauge_series(ctx, xv, lambda args: _twisted(ctx, maps, xv, args, -1))


def ad_b(ctx: MCContext, b: GradedElement) -> Derivation:
    """The inner derivation bracketing with a degree-0 form parameter."""
    pair = ctx.l3.pair
    ctx.require_ideal(b, "bracketing parameter")
    b_lie = ctx.l3.to_b_element(b)
    images = {}
    for nm in pair.algebra.names:
        img = pair.algebra.bracket(b_lie, pair.algebra.unit(nm))
        images[nm] = GradedElement(
            pair.algebra.basis,
            {k: (c if isinstance(c, TruncatedPoly) else ctx.const(c)) for k, c in img.coords.items()},
        )
    return Derivation(pair.algebra, images)


def bridge_defects(ctx: MCContext, b: GradedElement):
    """The identities tying the inner derivation to the deformed brackets.

    Curvature of ad_b is the differential of b, its degree-0 action is the
    binary bracket with b, and its pairing is the ternary bracket with b;
    checked on all basis instances with truncated-polynomial coefficients.
    """
    l3 = ctx.l3
    st = ctx.structure
    maps = ad_b_action(ctx, b).maps[0]
    bad = []
    d = st.bracket(1)
    db = d.evaluate([b]) if d is not None else l3.zero()
    if maps[0].evaluate([]) != db:
        bad.append(("curvature-vs-differential", ()))
    b2 = st.bracket(2)
    b3 = st.bracket(3)
    for nm in l3.basis.names:
        unit = l3.basis.unit(nm)
        rhs = b2.evaluate([b, unit]) if b2 is not None else l3.zero()
        if maps[1].evaluate([unit]) != rhs:
            bad.append(("action1-vs-bracket2", (nm,)))
    for key in iter_normalized_tuples(l3.basis, 2, symmetric=False):
        x, y = key
        rhs = (
            b3.evaluate([b, l3.basis.unit(x), l3.basis.unit(y)]) if b3 is not None else l3.zero()
        )
        if maps[2].eval_basis(key) != rhs:
            bad.append(("action2-vs-bracket3", key))
    return bad


def check_gauge_coincidence(ctx: MCContext, b: GradedElement, xi: MCElement, check_bridges: bool = True):
    """Compare the two gauge actions for the inner derivation of b.

    Returns (equal, difference); the bridge identities driving the
    coincidence are asserted first unless explicitly waived.
    """
    if check_bridges:
        bridges = bridge_defects(ctx, b)
        if bridges:
            raise AssertionError("bridge identities fail: %s" % (bridges,))
    lhs = gauge_h(ctx, ad_b_action(ctx, b), xi)
    rhs = gauge_getzler(ctx, b, xi)
    diff = lhs.value - rhs.value
    return diff.is_zero(), diff


class Obstruction:
    """First unsolvable order of the order-by-order extension, with the
    inhomogeneous term that has no preimage under the differential."""

    def __init__(self, order: int, element: GradedElement):
        self.order = order
        self.element = element

    def __repr__(self):
        return "Obstruction(order=%d, %r)" % (self.order, self.element)


def mc_extend(ctx: MCContext, xi1: GradedElement):
    """Extend a closed degree-1 seed to a Maurer-Cartan element order by order.

    The seed has rational coefficients and is killed by the differential;
    each higher order solves one linear system against the differential.
    Returns an MCElement, or the first Obstruction when a system is
    inconsistent.
    """
    l3 = ctx.l3
    st = ctx.structure
    if not xi1.is_zero() and xi1.degree() != 1:
        raise ValueError("the seed must have degree 1")
    d = st.bracket(1)
    if d is not None and not d.evaluate([xi1]).is_zero():
        raise ValueError("the seed is not closed")
    deg1, deg2, rows = differential_matrix(l3, 1)
    layers = {1: xi1}
    for m in range(2, ctx.order + 1):
        partial = l3.zero()
        for k, layer in layers.items():
            partial = partial + ctx.lift(layer, k)
        curv = mc_defect(ctx, partial)
        c_m = {}
        for nm, c in curv.coords.items():
            coeff = c.coefficient(m)
            if coeff:
                c_m[nm] = coeff
        if not c_m:
            layers[m] = l3.zero()
            continue
        rhs = [-c_m.get(nm, Fraction(0)) for nm in deg2]
        sol = linalg.solve(rows, rhs)
        if sol is None:
            # report the unreachable right-hand side of the linear step
            return Obstruction(m, GradedElement(l3.basis, {nm: -c for nm, c in c_m.items()}))
        layers[m] = GradedElement(l3.basis, {nm: c for nm, c in zip(deg1, sol) if c})
    total = l3.zero()
    for k, layer in layers.items():
        total = total + ctx.lift(layer, k)
    return MCElement(ctx, total)


# --- seeded random instances --------------------------------------------------

def random_ideal_poly(rng: random.Random, order: int) -> TruncatedPoly:
    return TruncatedPoly(order, [0] + [rng.randint(-3, 3) for _ in range(order)])


def random_gauge_parameter(ctx: MCContext, rng: random.Random) -> GradedElement:
    """Random degree-0 form with coefficients in the ideal."""
    coords = {}
    for nm in ctx.l3.basis.names:
        if ctx.l3.basis.degree(nm) == 0:
            p = random_ideal_poly(rng, ctx.order)
            if p:
                coords[nm] = p
    return GradedElement(ctx.l3.basis, coords)


def closed_directions(ctx: MCContext) -> list:
    """A basis of the closed degree-1 forms with rational coefficients."""
    deg1, _deg2, rows = differential_matrix(ctx.l3, 1)
    return [GradedElement(ctx.l3.basis, dict(zip(deg1, vec))) for vec in linalg.nullspace(rows, len(deg1))]


def closed_seed(ctx: MCContext, picks) -> GradedElement:
    """The seed sum c * direction over (direction, c) picks of closed directions."""
    seed = ctx.l3.zero()
    for direction, c in picks:
        if c:
            seed = seed + direction.scale(c)
    return seed


def random_mc_element(ctx: MCContext, rng: random.Random, attempts: int = 60) -> MCElement:
    """Random Maurer-Cartan element produced by extending a random closed seed.

    Seeds are random combinations of closed degree-1 directions.  Extension
    can be genuinely obstructed, so rejected seeds are retried with shrinking
    support (sparser combinations are far more likely to extend).
    """
    kernel = closed_directions(ctx)
    if not kernel:
        return MCElement(ctx, ctx.l3.zero())
    for attempt in range(attempts):
        width = max(1, len(kernel) >> min(attempt // 3, 8))
        chosen = rng.sample(range(len(kernel)), min(width, len(kernel)))
        seed = closed_seed(ctx, ((kernel[idx], rng.randint(-3, 3)) for idx in chosen))
        result = mc_extend(ctx, seed)
        if isinstance(result, MCElement):
            return result
    raise RuntimeError("no unobstructed Maurer-Cartan element found in %d attempts" % attempts)
