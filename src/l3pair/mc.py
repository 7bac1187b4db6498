"""Maurer-Cartan elements with nilpotent coefficients and gauge actions.

Coefficients live in the local ring R = Q[t]/(t^(N+1)): products of N+1
elements of its maximal ideal (t) vanish, which is what makes every gauge
series below finite.  A Maurer-Cartan element is a degree-1 form with
coefficients in (t) killing the curvature expression

    d xi + 1/2 [xi, xi] + 1/6 [xi, xi, xi] = 0          (arity cap 3).

Two gauge recursions act on such elements: the classical one driven by a
degree-0 form b, and the derivation-driven one in which a derivation
(with coefficients in the ideal) acts through its curvature and action maps.
Both series terminate because the k-th correction term has ideal valuation
at least k, which is asserted at every step.  For inner derivations given by
bracketing with b the two recursions agree exactly: ``check_gauge_coincidence``
verifies that, and ``bridge_defects`` the three identities that drive it.

Every table here is a layered table, {arity: {key: (den, {symbol: integer
t-layers})}}, read from ``MultiTable.integer_form``.  The derivation-driven
recursion takes the layered action of the derivation, the curvature under
arity 0: ``layered_action`` builds it for sum_r c_r(t) der_r as one integer
sum over the tables of a derivation basis (``ActionMaps.integer_entries``),
and ``ad_b_action`` is that sum over the per-symbol ad tables each context
builds once.  The classical recursion runs on the same sum over the
per-symbol tables l_{n+1}(e_s, .) of the stored brackets
(``MCContext.symbol_brackets``): b has degree 0, so l(xi^j, b, args) =
(-1)^j l(b, xi^j, args) (``contracted_brackets``).  The bridge identities
say that these two layered tables are equal; where they are,
``gauge_actions`` runs one gauge series for both actions.

The curvature, the twisted brackets and the twisted action maps are one
series, sum_j sign^j / j! l_{j+n}(xi^j, args), over the brackets as constant
layers (``MCContext.brackets``, sign 1) or a layered table (sign -1).
``_Twist`` evaluates it with coefficients held by t-power: a value is held
as a table entry is, (D, {symbol: integer t-layers}) in lowest terms, and a
term is a truncated convolution of layers, formed only for the symbol tuples
the table stores; xi's products are formed only for the multisets such a
tuple needs.  The corrections of a gauge series have degree 1, so
each unordered pair of them is evaluated once (``_gauge_series``).

That form is the only one R has here: the public functions take and return
layered values (xi and ``MCElement.value``, a gauge parameter b, a
curvature, a twisted bracket, the difference of two gauge actions), sums
and differences of them are ``_combine`` calls, and ``layered_json`` writes
one as the reports do, {symbol: {"coeffs": [N+1 rationals], "order": N}}.
``convolve`` multiplies two layer tuples, dropping every power above the
order.

``mc_extend`` manufactures Maurer-Cartan elements order by order from a
closed degree-1 seed (``closed_seed``), reporting the first order whose
linear solve fails: an obstruction at order 2, undecided from order 3 on
(``Obstruction``).  The matrix of d on degree-1 forms and its kernel,
which the seeds and every order of the extension read, are built once per
``MCContext``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cached_property
from itertools import chain, product
from math import comb, factorial, gcd, lcm, prod

from . import linalg
from .deraction import ActionMaps, ad, differential_matrix
from .graded import normalize_tuple
from .liepair import L3Pair
from .scalars import DEFAULT_ORDER, format_rational, scaled
from .vectors import GradedElement


class MCContext:
    """A bracket structure together with a coefficient truncation order."""

    def __init__(self, l3: L3Pair, order: int = DEFAULT_ORDER):
        self.l3 = l3
        self.order = order
        self.structure = l3.structure()
        self._bracket_entries = {}  # the bracket lookups of every twisted series, see _Twist._entry

    @cached_property
    def brackets(self) -> dict:
        """{n: {key: (D, {symbol: ((0, integer),)})}}: each stored bracket as constant layers over its table's D, built on
        first use.  One D per table, not each entry's own, keeps ``_Twist``'s common denominator from
        growing entry by entry."""
        out = {}
        for n, t in self.structure.brackets.items():
            den, ints = t.integer_form()
            out[n] = {key: (den, {nm: ((0, a),) for nm, a in items}) for key, items in ints.items()}
        return out

    @cached_property
    def ad_symbols(self) -> ActionMaps:
        """Tabulated actions of ad(e_s), one per complement symbol e_s in ``pair.b_names`` order, built on first use."""
        alg = self.l3.pair.algebra
        return ActionMaps(self.l3, [ad(alg, alg.unit(b)) for b in self.l3.pair.b_names])

    @cached_property
    def degree1_matrix(self):
        """(degree-1 names, degree-2 names, rows): d from degree 1 to 2 (``differential_matrix``),
        built on first use."""
        return differential_matrix(self.l3, 1)

    @cached_property
    def closed_kernel(self) -> list:
        """A basis of the kernel of ``degree1_matrix``, coordinate lists over the degree-1 names,
        solved on first use."""
        deg1, _deg2, rows = self.degree1_matrix
        return linalg.nullspace(rows, len(deg1))

    @cached_property
    def symbol_brackets(self) -> list:
        """The tables l_{n+1}(e_s, .) of the complement symbols for n = 0, 1, 2, in the form
        ``ActionMaps.integer_entries`` holds a basis's maps, from the stored bracket entries
        holding e_s; built on first use.  e_s is even and a skew key holds it at most once, at
        position p: l_{n+1}(e_s, rest) is (-1)^p times the entry at the key."""
        position = {s: r for r, s in enumerate(self.l3.pair.b_names)}
        found = [{0: {}, 1: {}, 2: {}} for _ in position]
        for n, t in self.structure.brackets.items():
            for key, val in t.values.items():
                for p, s in enumerate(key):
                    if s in position:
                        found[position[s]][n - 1][key[:p] + key[p + 1:]] = [(nm, -c if p % 2 else c) for nm, c in val.coords.items()]
        return [{n: scaled(table) for n, table in tables.items()} for tables in found]

    def require_ideal(self, value: tuple, what: str, degree: int):
        """Reject a layered value that is no form of the given degree with coefficients in the ideal (t)
        of R: one with a layer above t^N or at t^0, or a symbol of another degree."""
        basis = self.l3.basis
        for nm, layers in value[1].items():
            if any(k > self.order for k, _ in layers):
                raise ValueError("%s must have order-%d coefficients" % (what, self.order))
            if any(k < 1 for k, _ in layers):
                raise ValueError("%s has a nonzero constant term at %r" % (what, nm))
        if any(nm not in basis or basis.degree(nm) != degree for nm in value[1]):
            raise ValueError("%ss have degree %d" % (what, degree))


def mc_defect(ctx: MCContext, xi: tuple) -> tuple:
    """The curvature of a degree-1 layered value with ideal coefficients."""
    ctx.require_ideal(xi, "Maurer-Cartan candidate", 1)
    return _Twist(ctx, ctx.brackets, xi)([])


# --- coefficients in R, by t-power ----------------------------------------------
#
# Every t-layered value (xi, a gauge parameter, a twist's arguments and
# result, a gauge correction or partial sum, an entry of a layered action) is
# held as a table entry is: (D, {symbol: integer t-layers}), the nonzero
# (power, integer) pairs of each coordinate over one positive denominator D,
# in lowest terms, so equal values are equal tuples and zero is (1, {}).
# ``_reduced`` forms them, and ``_combine`` sums them.

def convolve(a: tuple, b: tuple, top: int) -> tuple:
    """Truncated product of two layer tuples: every power above ``top`` is dropped."""
    out = {}
    for i, x in a:
        if i > top:
            break
        for j, y in b:
            k = i + j
            if k > top:
                break
            out[k] = out.get(k, 0) + x * y
    return tuple((k, out[k]) for k in sorted(out) if out[k])


def _reduced(den: int, dense: dict) -> tuple:
    """(D, {symbol: integer layers}) in lowest terms of {symbol: integers by t-power} over den, the
    zero layers and symbols dropped: one gcd, and one pass that divides by it."""
    g = gcd(den, *chain.from_iterable(dense.values()))
    layers = {}
    for nm, values in dense.items():
        ls = tuple([(k, a // g) for k, a in enumerate(values) if a])
        if ls:
            layers[nm] = ls
    return den // g, layers


def _combine(order: int, terms: list) -> tuple:
    """sum w * value over (rational weight, layered value) pairs, summed as integers over the least
    common denominator and reduced."""
    common = lcm(*(w.denominator * den for w, (den, _) in terms))
    acc = {}
    for w, (den, layered) in terms:
        factor = w.numerator * (common // (w.denominator * den))
        for nm, layers in layered.items():
            dense = acc.get(nm)
            if dense is None:
                acc[nm] = dense = [0] * (order + 1)
            for k, a in layers:
                dense[k] += factor * a
    return _reduced(common, acc)


def layered_json(ctx: MCContext, value: tuple) -> dict:
    """A layered value as the reports write it: {symbol: {"coeffs": [N+1 rationals], "order": N}}."""
    den, layered = value
    out = {}
    for nm, layers in layered.items():
        coeffs = ["0"] * (ctx.order + 1)
        for k, a in layers:
            coeffs[k] = format_rational(Fraction(a, den))
        out[nm] = {"coeffs": coeffs, "order": ctx.order}
    return out


def _valuation(value: tuple, order: int) -> int:
    """Minimum power of a layered value; order+1 for zero."""
    return min((layers[0][0] for layers in value[1].values()), default=order + 1)


class _Twist:
    """sum_j sign^j / j! tables[j + n](xi^j, args) on layered values, n = len(args).

    ``tables`` maps each arity to the stored entries of a skew table as a
    layered table, {key: (den, {symbol: integer layers})}: the structure's
    brackets (``MCContext.brackets``, constant layers) or a layered action.

    xi has degree 1, so a skew table is symmetric in its xi slots (chi = sgn *
    eps = +1): the j! orderings of a multiset of xi's support with
    multiplicities m_s share one value, and the ordered sum over j! becomes a
    sum over multisets weighted by prod c_s^{m_s} / prod m_s!.  Each symbol
    tuple is looked up once, before any coefficient arithmetic; only a stored
    entry forms the truncated convolution of the argument layers with its own
    (the entries of a layered action have layers of their own).  The
    arguments are walked as the ordered tuples of their symbols.  A multiset
    is listed with its valuation, and its product of xi coordinates is
    formed, from its prefix's, only when a stored entry first needs it.  A
    combination whose valuations already exceed ``top`` is never looked up.

    The convolutions run on integers: xi and each argument come as
    integers over their denominators, the multiset weight j! / prod m_s! is
    an integer, sign^j is applied once per level, and the sum, held over
    one common denominator, is reduced once (``_reduced``).
    """

    def __init__(self, ctx: MCContext, tables: dict, xi: tuple, sign: int = 1, top: int | None = None):
        self.space = space = ctx.l3.basis
        self.top = ctx.order if top is None else top
        self.tables = {n: t for n, t in tables.items() if t}
        self.xi_den, self.coeffs = xi
        if any(space.parity(nm) != 1 for nm in self.coeffs):
            raise ValueError("the twist must have degree 1")
        self.xi = sorted(self.coeffs.items(), key=lambda item: space.index(item[0]))
        self.sign = sign
        # size j -> [(multiset, position of its last symbol, valuation)]
        self._powers = {0: [((), 0, 0)]}
        self._products = {(): ((0, 1),)}  # multiset -> its weighted integer layers, formed on first use
        self._entries = ctx._bracket_entries if tables is ctx.brackets else {}

    def _xi_powers(self, j: int) -> list:
        """The multisets of size j of xi's support whose product has a layer at or below ``top``,
        its valuation being the sum of the least powers.  No coefficient is multiplied here."""
        found = self._powers.get(j)
        if found is None:
            found = []
            top = self.top
            for multiset, last, low in self._xi_powers(j - 1):
                for pos in range(last, len(self.xi)):
                    nm, c = self.xi[pos]
                    if low + c[0][0] <= top:
                        found.append((multiset + (nm,), pos, low + c[0][0]))
            self._powers[j] = found
        return found

    def _product(self, multiset: tuple) -> tuple:
        """j! / prod m_s! prod c_s^{m_s} for a multiset of size j, the c_s scaled to integers (the
        denominator is j! xi_den^j), formed from its prefix's product on first use."""
        got = self._products.get(multiset)
        if got is None:
            nm = multiset[-1]
            # the multinomial of the longer multiset is the shorter one's times j / mult
            j, mult = len(multiset), multiset.count(nm)
            prefix = self._product(multiset[:-1])
            got = self._products[multiset] = tuple((k, a * j // mult) for k, a in convolve(prefix, self.coeffs[nm], self.top))
        return got

    def _entry(self, names):
        """(denominator, [(symbol, integer layers)]) of the value on a symbol tuple, its sign
        folded in; None where nothing is stored.  Each tuple is normalized once per series, and
        once per context for the structure's brackets."""
        sign, key = normalize_tuple(self.space, names, False)
        val = self.tables[len(names)].get(key) if sign else None
        got = None
        if val is not None:
            got = (val[0], [(nm, tuple((k, sign * a) for k, a in layers)) for nm, layers in val[1].items()])
        self._entries[names] = got
        return got

    def __call__(self, args) -> tuple:
        top = self.top
        args_den = prod(den for den, _ in args)
        combos = []  # (symbols, valuation, integer layers) per tuple of argument symbols
        for combo in product(*(layered.items() for _, layered in args)):
            low = sum(layers[0][0] for _, layers in combo)
            if low <= top:
                combos.append((tuple(nm for nm, _ in combo), low, [layers for _, layers in combo]))
        acc, common = {}, 1  # dense integer layers over the common denominator
        entries, products = self._entries, self._products
        for arity in self.tables:
            j = arity - len(args)
            if j < 0:
                continue
            level_den = factorial(j) * self.xi_den**j * args_den
            level_sign = self.sign**j
            for multiset, _, mlow in self._xi_powers(j):
                for names, low, arg_layers in combos:
                    if mlow + low > top:
                        continue
                    key = multiset + names
                    entry = entries[key] if key in entries else self._entry(key)
                    if entry is None:
                        continue
                    den = level_den * entry[0]
                    if common % den:
                        grow = lcm(common, den) // common
                        for dense in acc.values():
                            dense[:] = [v * grow for v in dense]
                        common *= grow
                    coeff = products[multiset] if multiset in products else self._product(multiset)
                    for layers in arg_layers:
                        coeff = convolve(coeff, layers, top)
                    rescale = level_sign * (common // den)
                    for nm, vlayers in entry[1]:
                        dense = acc.get(nm)
                        if dense is None:
                            acc[nm] = dense = [0] * (top + 1)
                        for i, x in coeff:
                            x *= rescale
                            for k, y in vlayers:
                                p = i + k
                                if p > top:
                                    break
                                dense[p] += x * y
        return _reduced(common, acc)


class MCElement:
    """A degree-1 layered value with ideal coefficients satisfying the
    curvature equation (checked at construction)."""

    def __init__(self, ctx: MCContext, value: tuple):
        ctx.require_ideal(value, "Maurer-Cartan element", 1)
        defect = _Twist(ctx, ctx.brackets, value)([])  # the curvature: the checks mc_defect makes are made above
        if defect[1]:
            raise ValueError("curvature equation fails: %r" % (defect,))
        self.value = value

    def __eq__(self, other):
        return isinstance(other, MCElement) and self.value == other.value

    def __repr__(self):
        return "MCElement(%r)" % (self.value,)


def twisted_bracket(ctx: MCContext, xi: tuple, arity: int, args) -> tuple:
    """Bracket of the xi-deformed structure, sum_j 1/j! l_{j+n}(xi^j, args) over the stored arities:
    powers of xi inserted up to the cap, on layered values."""
    if arity < 1:
        raise ValueError("arity must be >= 1")
    if len(args) != arity:
        raise ValueError("expected %d arguments, got %d" % (arity, len(args)))
    return _Twist(ctx, ctx.brackets, xi)(args)


def _gauge_series(ctx: MCContext, xv: tuple, term) -> MCElement:
    """xv - sum_k e_k / k! for the corrections e_1 = term([]) and

      e_{k+1} = sum_{n=1..min(k,2)} 1/n! sum_{k_1+...+k_n=k} k!/(k_1!...k_n!)
                term([e_{k_1}, ..., e_{k_n}]),

    asserting that e_k has ideal valuation at least k.  ``term`` maps
    layered corrections to a layered value, and the weighted terms are
    summed as integers (``_combine``).  The corrections have degree 1
    and every table is read at normalized keys, so term([e_a, e_b]) =
    term([e_b, e_a]): the sum is term([e_k]) plus, for 1 <= a <= k/2, the
    binomial C(k, a) times term([e_a, e_{k-a}]), halved when 2a = k.
    """
    order = ctx.order
    e = {1: term([])}
    if _valuation(e[1], order) < 1:
        raise AssertionError("valuation of the first correction dropped below 1")
    for k in range(1, order):
        pairs = ((Fraction(comb(k, a), 2 if 2 * a == k else 1), term([e[a], e[k - a]])) for a in range(1, k // 2 + 1))
        e[k + 1] = _combine(order, [(1, term([e[k]])), *pairs])
        if _valuation(e[k + 1], order) < k + 1:
            raise AssertionError("valuation of correction %d dropped below %d" % (k + 1, k + 1))
    return MCElement(ctx, _combine(order, [(1, xv), *((Fraction(-1, factorial(k)), ek) for k, ek in e.items())]))


def gauge_getzler(ctx: MCContext, b: tuple, xi: MCElement) -> MCElement:
    """Gauge action of a degree-0 layered value with ideal coefficients.

    The first correction is the twisted differential of b; the recursion

      e_{k+1} = sum_{n=1..k} 1/n! sum_{k_1+...+k_n=k} k!/(k_1!...k_n!)
                [b, e_{k_1}, ..., e_{k_n}]^xi_{n+1}

    terminates because e_k has ideal valuation at least k (asserted).

    The twisted bracket is sum_j 1/j! l_{j+n+1}(xi^j, b, args).  Moving b
    past the j copies of xi to the front is j transpositions of a degree-0
    and a degree-1 argument, each with the skew sign -(-1)^(0*1) = -1, so
    the term is sum_j (-1)^j / j! B_{j+n}(xi^j, args) for the brackets
    contracted with b, B_m = l_{m+1}(b, .) (``contracted_brackets``): the
    twisted series of the layered table B with sign -1, as ``gauge_h`` runs
    it on the layered action of ad_b.
    """
    return _series(ctx, xi, *_getzler_input(ctx, b))


def _getzler_input(ctx: MCContext, b: tuple, contracted: dict | None = None) -> tuple:
    """(table, sign) of the classical series: the brackets contracted with b (unless given), -1."""
    ctx.require_ideal(b, "gauge parameter", 0)
    return (contracted_brackets(ctx, b) if contracted is None else contracted), -1


def _series(ctx: MCContext, xi: MCElement, table: dict, sign: int) -> MCElement:
    """The gauge series of xi twisting a layered table with a sign, shared by both gauge actions."""
    return _gauge_series(ctx, xi.value, _Twist(ctx, table, xi.value, sign))


def _symbol_layers(ctx: MCContext, b: tuple) -> dict:
    """{r: rational t-layers of the coefficient of e_r} of a degree-0 layered value with ideal
    coefficients, r the position of the complement symbol e_r in ``pair.b_names``."""
    ctx.require_ideal(b, "bracketing parameter", 0)
    den, layered = b
    position = ctx.l3.pair.b_names.index
    return {
        position(ctx.l3.decode[nm][1]): layers if den == 1 else tuple((k, Fraction(a, den)) for k, a in layers)
        for nm, layers in layered.items()
    }


def layered_action(ctx: MCContext, tables: list, coeffs: dict) -> dict:
    """sum_r c_r(t) T_r by t-power, {n: {key: (den, {symbol: integer t-layers})}} for n = 0, 1, 2.

    ``tables`` holds, per r, {n: (D, {key: ((symbol, integer), ...)})}, the
    integer form of T_r's arity-n map, as ``ActionMaps.integer_entries`` holds
    a derivation basis's action maps; ``coeffs`` is {r: t-layers of c_r},
    each c_r in the ideal (t) of Q[t]/(t^(N+1)).  Each c_r / D, one per
    nonempty table of r, is brought to integers over one common denominator
    by one ``scalars.scaled`` call; each entry holds one dense integer list
    per output symbol while it is summed, and only the nonzero entries are
    kept, each reduced (``_reduced``).
    """
    order = ctx.order
    for r, layers in coeffs.items():
        if any(not 1 <= k <= order for k, _ in layers):
            raise ValueError("coefficient %r has a layer outside t^1..t^%d" % (r, order))
    den, coeffs = scaled({
        (r, n): layers if d == 1 else tuple((k, Fraction(c, d)) for k, c in layers)
        for r, layers in coeffs.items() for n, (d, entries) in tables[r].items() if entries
    })
    acc = {}  # (n, key) -> {symbol: dense integer layers}
    for (r, n), layers in coeffs.items():
        for key, vals in tables[r][n][1].items():
            entry = acc.setdefault((n, key), {})
            for nm, v in vals:
                dense = entry.get(nm)
                if dense is None:
                    entry[nm] = dense = [0] * (order + 1)
                for k, a in layers:
                    dense[k] += a * v
    out = {0: {}, 1: {}, 2: {}}
    for (n, key), entry in acc.items():
        val = _reduced(den, entry)
        if val[1]:
            out[n][key] = val
    return out


def ad_b_action(ctx: MCContext, b: tuple) -> dict:
    """The layered action of ad_b for b = sum_s b_s(t) e_s: sum_s b_s(t) times the rational
    ad table of e_s (``MCContext.ad_symbols``).  The curvature is the arity-0 entry under the key ()."""
    return layered_action(ctx, ctx.ad_symbols.integer_entries, _symbol_layers(ctx, b))


def contracted_brackets(ctx: MCContext, b: tuple) -> dict:
    """The brackets contracted with b = sum_s b_s(t) e_s, B_n = l_{n+1}(b, .) for n = 0, 1, 2, as a
    layered table: sum_s b_s(t) times the rational tables of ``MCContext.symbol_brackets``.  B_0 is
    the differential of b, under the key ()."""
    return layered_action(ctx, ctx.symbol_brackets, _symbol_layers(ctx, b))


def action_curvature(ctx: MCContext, action: dict) -> tuple:
    """The curvature of a layered action: its arity-0 entry, a layered value."""
    return action[0].get((), (1, {}))


def gauge_h(ctx: MCContext, delta: dict, xi: MCElement) -> MCElement:
    """Gauge action of a derivation with ideal coefficients.

    The first correction is kappa(delta) - delta |> xi + 1/2 delta |> (xi, xi);
    later corrections feed earlier ones back through the action maps with
    alternating xi insertions.  The series is finite: actions with three or
    more form arguments vanish and the k-th correction has valuation at
    least k (asserted).

    ``delta`` is the layered action of the derivation, as ``layered_action``
    builds it (``ad_b_action`` for an inner one); an entry with a layer
    outside t^1..t^N is rejected.
    """
    return _series(ctx, xi, *_h_input(ctx, delta))


def _h_input(ctx: MCContext, delta: dict) -> tuple:
    """(table, sign) of the derivation-driven series: the layered action, checked, and -1."""
    if any(not 1 <= k <= ctx.order for t in delta.values() for _, val in t.values() for ls in val.values() for k, _ in ls):
        raise ValueError("derivation parameter has a layer outside t^1..t^%d" % ctx.order)
    return delta, -1


BRIDGES = ("curvature-vs-differential", "action1-vs-bracket2", "action2-vs-bracket3")


def bridge_defects(ctx: MCContext, b: tuple, tables: tuple | None = None):
    """The identities tying the inner derivation to the deformed brackets.

    Curvature of ad_b is the differential of b, its degree-0 action is the
    binary bracket with b, and its pairing is the ternary bracket with b:
    the layered action of ad_b (from the tabulated actions of ad(e_s)) must
    equal the brackets contracted with b (from the structure's stored
    entries), key by key.  A key is reported iff the two differ there, by
    identity, then key order.  ``tables`` is (ad_b action, contracted
    brackets) of b, built here unless given.
    """
    lhs, rhs = tables or (ad_b_action(ctx, b), contracted_brackets(ctx, b))
    index = ctx.l3.basis.index
    keys = sorted(
        ((n, key) for n in lhs for key in lhs[n].keys() | rhs[n].keys() if lhs[n].get(key) != rhs[n].get(key)),
        key=lambda nk: (nk[0], [index(nm) for nm in nk[1]]),
    )
    return [(BRIDGES[n], key) for n, key in keys]


def bridge_keys(ctx: MCContext, b: tuple) -> int:
    """The number of keys at which the bridge identities compare entries for b: those where a
    complement symbol in b's support stores an entry in its ad table or in its contracted
    brackets.  ``bridge_defects`` compares the two sums there, a key where both cancel as
    zero with zero."""
    support = _symbol_layers(ctx, b)
    return len({
        (n, key) for tables in (ctx.ad_symbols.integer_entries, ctx.symbol_brackets)
        for r in support for n, (_, entries) in tables[r].items() for key in entries
    })


def gauge_actions(ctx: MCContext, b: tuple, xi: MCElement, tables: tuple | None = None) -> tuple:
    """(``gauge_h`` of ad_b, ``gauge_getzler`` of b) on xi: series twisting, with sign -1, the action
    of ad_b tabulated from ad(e_s) and the brackets contracted with b, read from the structure.
    So the bridge identities (``bridge_defects``) compare exactly these two tables (``tables``,
    built here unless given), and where the inputs are equal one exact series serves both."""
    action, contracted = tables or (ad_b_action(ctx, b), contracted_brackets(ctx, b))
    h_input, getzler_input = _h_input(ctx, action), _getzler_input(ctx, b, contracted)
    lhs = _series(ctx, xi, *h_input)
    return lhs, lhs if getzler_input == h_input else _series(ctx, xi, *getzler_input)


def check_gauge_coincidence(ctx: MCContext, b: tuple, xi: MCElement, tables: tuple | None = None):
    """(equal, layered difference) of the two gauge actions for the inner derivation of b (``gauge_actions``)."""
    lhs, rhs = gauge_actions(ctx, b, xi, tables)
    diff = _combine(ctx.order, [(1, lhs.value), (-1, rhs.value)])
    return not diff[1], diff


class Obstruction:
    """First unsolvable order of the order-by-order extension, with the
    inhomogeneous term that has no preimage under the differential.

    ``decided`` says whether that proves the seed has no extension.  At
    order 2 the term is -1/2 l_2(xi_1, xi_1), fixed by the seed, so it does.
    From order 3 on the term depends on the t^2 .. t^(m-1) terms solved
    before, each free up to a closed form z (at order 3 the system with the
    t^2 term left free is [d | l_2(xi_1, z_i)]), so another choice of them
    may extend: the extension is undecided there.
    """

    def __init__(self, order: int, element: GradedElement):
        self.order = order
        self.element = element
        self.decided = order == 2

    def __repr__(self):
        return "Obstruction(order=%d, %r)" % (self.order, self.element)


def mc_extend(ctx: MCContext, xi1: GradedElement):
    """Extend a closed degree-1 seed to a Maurer-Cartan element order by order.

    The seed has rational coefficients and is killed by the differential;
    each higher order solves one linear system against the differential.
    Returns an MCElement, or the Obstruction of the first inconsistent
    system.
    """
    l3 = ctx.l3
    st = ctx.structure
    if not xi1.is_zero() and xi1.degree() != 1:
        raise ValueError("the seed must have degree 1")
    d = st.bracket(1)
    if d is not None and not d.evaluate([xi1]).is_zero():
        raise ValueError("the seed is not closed")
    deg1, deg2, rows = ctx.degree1_matrix
    xi = scaled({nm: ((1, c),) for nm, c in xi1.coords.items()} if ctx.order >= 1 else {})
    for m in range(2, ctx.order + 1):
        # the partial sum solves the curvature equation below t^m: only its t^m layer is new
        den, curv = _Twist(ctx, ctx.brackets, xi, top=m)([])
        c_m = {nm: Fraction(a, den) for nm, layers in curv.items() for k, a in layers if k == m}
        if not c_m:
            continue
        rhs = [-c_m.get(nm, Fraction(0)) for nm in deg2]
        sol = linalg.solve(rows, rhs)
        if sol is None:
            # report the unreachable right-hand side of the linear step
            return Obstruction(m, GradedElement(l3.basis, {nm: -c for nm, c in c_m.items()}))
        xi = _combine(ctx.order, [(1, xi), (1, scaled({nm: ((m, c),) for nm, c in zip(deg1, sol) if c}))])
    return MCElement(ctx, xi)


# --- seeded random instances --------------------------------------------------

MC_ATTEMPTS = 60  # seeds ``random_mc_element`` tries before it gives up


def random_gauge_parameter(ctx: MCContext, rng: random.Random) -> tuple:
    """Random degree-0 layered value with coefficients in the ideal: each of t^1 .. t^N an integer in
    -3..3, drawn symbol by symbol in basis order."""
    coords = {}
    for nm in ctx.l3.basis.names:
        if ctx.l3.basis.degree(nm) == 0:
            layers = tuple((k, a) for k, a in enumerate([rng.randint(-3, 3) for _ in range(ctx.order)], 1) if a)
            if layers:
                coords[nm] = layers
    return 1, coords


def closed_directions(ctx: MCContext) -> list:
    """A basis of the closed degree-1 forms with rational coefficients, as a new list."""
    deg1 = ctx.degree1_matrix[0]
    return [GradedElement(ctx.l3.basis, dict(zip(deg1, vec))) for vec in ctx.closed_kernel]


def closed_seed(ctx: MCContext, picks) -> GradedElement:
    """The seed sum c * direction over (direction, c) picks of closed directions."""
    seed = ctx.l3.zero()
    for direction, c in picks:
        if c:
            seed = seed + direction.scale(c)
    return seed


def random_mc_element(ctx: MCContext, rng: random.Random) -> MCElement:
    """Random Maurer-Cartan element produced by extending a random closed seed.

    Seeds are random combinations of closed degree-1 directions.  Extension
    can be genuinely obstructed, so rejected seeds are retried with shrinking
    support (sparser combinations are far more likely to extend).
    """
    kernel = closed_directions(ctx)
    if not kernel:
        return MCElement(ctx, (1, {}))
    for attempt in range(MC_ATTEMPTS):
        width = max(1, len(kernel) >> min(attempt // 3, 8))
        chosen = rng.sample(range(len(kernel)), min(width, len(kernel)))
        seed = closed_seed(ctx, ((kernel[idx], rng.randint(-3, 3)) for idx in chosen))
        result = mc_extend(ctx, seed)
        if isinstance(result, MCElement):
            return result
    raise RuntimeError("no unobstructed Maurer-Cartan element found in %d attempts" % MC_ATTEMPTS)
