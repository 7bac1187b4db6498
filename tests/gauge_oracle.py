"""The gauge and derivation API that only the tests use, and the references for the layered actions.

The package builds the action of a derivation on integer t-layers
(``mc.layered_action``, ``mc.ad_b_action``), runs the classical gauge series
on the brackets contracted with b (``mc.contracted_brackets``) and checks
the bridge identities by comparing those two layered tables
(``mc.bridge_defects``).  This module
keeps the definitions they replaced, verbatim apart from methods becoming
functions of their object and the parameter b, which each takes in the
layered form the package reads and turns into an element with
truncated-polynomial coordinates (``ring_oracle.element``): the inner
derivation with truncated-polynomial images (``ad_b``), the entry-by-entry
combination of tabulated actions (``combination``, once
``ActionMaps.combination``), the ad_b action combined from the per-symbol
tables with it (``ad_b_action``), and the bridge identities evaluated on
truncated-polynomial coordinates (``bridge_defects``).  ``action_tables``
turns a layered action back into truncated-polynomial tables, so the two
can be compared table by table.

``layered_tables`` goes the other way, from tables with rational or
truncated-polynomial values to the layered form ``mc.gauge_h`` reads, and
``derivation_action`` is the action of any Derivation with ideal
truncated-polynomial images tabulated that way: the route ``gauge_h`` once
took for a Derivation argument, kept as the reference for
``mc.layered_action``.  ``check_basis_action`` compares the two on random
coefficients over a derivation basis.

``gauge_series_by_compositions`` is the gauge recursion summed over every
ordered composition with factorial weights, the reference for the pair
weights of ``mc._gauge_series``.

``gauge_getzler_direct`` is the classical gauge action with b the first
argument of the twisted bracket, sign +1, as ``mc.gauge_getzler`` ran it
before it read the contracted brackets; ``check_getzler_routes`` requires
the same MCElement from both.

The rest is API with no caller in the package: ``linear_combination``
(once ``graded.linear_combination``, the entry-by-entry sum of tables),
``lift`` (once
``MCContext.lift``), ``is_derivation`` (once ``Derivation.is_derivation``),
``derivation_defects`` (once ``Derivation.defects``), ``der_coords``,
``act2``, ``materialized`` (once ``ExtendedStructure.codifferential``: the
extended codifferential as one coderivation over the sum basis, every entry
of Q, of each psi_r under its derivation letter and of the derivation
bracket copied into it, the reference whose square the tests compose) and
``restricted_to_forms`` (once ``ExtendedStructure.restricted_to_forms``).
"""

import random
from fractions import Fraction
from itertools import combinations
from math import factorial, prod

from l3pair import linalg
from l3pair import mc as mcmod
from l3pair.deraction import ActionMaps, Derivation, _projections, act2_symbols
from l3pair.graded import MultiTable
from l3pair.linfty import Coderivation, iter_normalized_tuples
from l3pair.mc import MCContext
from l3pair.vectors import GradedElement, multilinear

from ring_oracle import TruncatedPoly, element, layered, require_ideal


# --- API with no caller in the package ----------------------------------------

def linear_combination(terms, space, arity: int, symmetry: str, map_degree: int) -> MultiTable:
    """The table sum of c * t over (c, t) terms, entry by entry.

    Every t has the given shape, which also fixes the result when there are
    no terms; a None t stands for the zero table.  Zero coefficients are
    skipped and entries that sum to zero are dropped.
    """
    out = MultiTable(space, arity, symmetry, map_degree)
    shape = (space, arity, symmetry, map_degree)
    values = out.values
    for c, table in terms:
        if table is None or not c:
            continue
        if (table.space, table.arity, table.symmetry, table.map_degree) != shape:
            raise ValueError("table does not have the shape of the combination")
        for key, val in table.values.items():
            prev = values.pop(key, None)
            new = val.scale(c) if prev is None else prev + val.scale(c)
            if not new.is_zero():
                values[key] = new
    return out


def lift(ctx: MCContext, elem: GradedElement, power: int = 1) -> GradedElement:
    """Tensor a rational element with t^power."""
    if power > ctx.order:
        return ctx.l3.zero()
    tp = TruncatedPoly(ctx.order, [0] * power + [1])
    return elem.scale(tp)


def derivation_defects(delta: Derivation):
    """Basis pairs where the derivation identity fails, evaluated on elements of L."""
    from structure_oracle import apply, lie_bracket  # structure_oracle imports this module, through shuffle_oracle

    alg = delta.algebra
    bad = []
    for u, v in combinations(alg.names, 2):
        lhs = apply(delta, lie_bracket(alg, alg.unit(u), alg.unit(v)))
        rhs = lie_bracket(alg, apply(delta, alg.unit(u)), alg.unit(v)) + lie_bracket(alg, alg.unit(u), apply(delta, alg.unit(v)))
        if lhs != rhs:
            bad.append((u, v, lhs - rhs))
    return bad


def is_derivation(delta: Derivation) -> bool:
    return not derivation_defects(delta)


def der_coords(basis_ders, delta: Derivation):
    """Coordinates of a derivation in a given derivation basis, or None."""
    vectors = [d.to_vector() for d in basis_ders]
    return linalg.in_span(vectors, delta.to_vector())


def act2(l3, delta: Derivation, x: GradedElement, y: GradedElement) -> GradedElement:
    """Degree (-1) pairing of the action; graded skew in its two form slots."""
    proj = _projections(l3, delta)
    return multilinear(l3.basis, lambda syms: l3.basis.element(act2_symbols(l3, proj, *syms)), [x, y])


def materialized(ext) -> Coderivation:
    """The extended codifferential of an ``ExtendedStructure`` as one coderivation over its sum basis
    ``ext.shifted``: the derivation bracket, then each psi_r with der_r put in front of every key (the
    curvature becomes arity 1, theta_r's arity n becomes n + 1), then Q on pure form words."""
    comps = {n: MultiTable(ext.shifted, n, "symmetric", 1) for n in (1, 2, 3)}
    psis = [((ext.der_names[r],), psi) for r, psi in enumerate(ext.tg.psis)]
    for letters, D in [((), ext.der_bracket)] + psis + [((), ext.tg.Q)]:
        for n, key, val in D.items():
            comps[n + len(letters)].values[letters + key] = GradedElement(ext.shifted, val.coords)
    return Coderivation(ext.shifted, 1, comps)


def restricted_to_forms(ext) -> Coderivation:
    """The codifferential restricted to pure form words."""
    form_set = set(ext.tg.l3.basis.names)
    comps = {}
    for k, table in materialized(ext).components.items():
        sub = MultiTable(ext.shifted, k, "symmetric", 1)
        for key, val in table.values.items():
            if all(nm in form_set for nm in key):
                sub.values[key] = val
        if not sub.is_zero():
            comps[k] = sub
    return Coderivation(ext.shifted, 1, comps)


# --- the ad_b action on truncated-polynomial tables ----------------------------

def to_b_element(l3, x: GradedElement) -> GradedElement:
    """A degree-0 form as the element of B it is; a form of positive degree is rejected."""
    out = {}
    for nm, c in x.coords.items():
        K, b = l3.decode[nm]
        if K:
            raise ValueError("form has positive degree")
        out[b] = c
    return GradedElement(l3.pair.algebra.basis, out)


def ad_b(ctx: MCContext, b: tuple) -> Derivation:
    """The inner derivation bracketing with a degree-0 layered parameter."""
    from structure_oracle import lie_bracket  # structure_oracle imports this module, through shuffle_oracle

    pair = ctx.l3.pair
    b = element(ctx, b)
    require_ideal(ctx, b, "bracketing parameter")
    b_lie = to_b_element(ctx.l3, b)
    images = {}
    for nm in pair.algebra.names:
        img = lie_bracket(pair.algebra, b_lie, pair.algebra.unit(nm))
        images[nm] = {k: (c if isinstance(c, TruncatedPoly) else TruncatedPoly.const(ctx.order, c)) for k, c in img.coords.items()}
    return Derivation(pair.algebra, images)


def derivation_sum(algebra, terms) -> Derivation:
    """sum c * delta over (c, delta) terms, image by image."""
    zero = algebra.basis.zero()
    return Derivation(algebra, {nm: sum((GradedElement(algebra.basis, d.images[nm]).scale(c) for c, d in terms), zero).coords
                                for nm in algebra.names})


def combination(action: ActionMaps, coeffs) -> ActionMaps:
    """The one-derivation action of sum_r coeffs[r] * der_r, combined
    entry by entry from the stored tables (zero coefficients are skipped)."""
    basis = action.l3.basis
    out = ActionMaps(action.l3, [])
    out.ders = [derivation_sum(action.l3.pair.algebra, [(c, d) for c, d in zip(coeffs, action.ders) if c])]
    out.maps = [{
        n: linear_combination([(c, maps[n]) for c, maps in zip(coeffs, action.maps)], basis, n, "skew", 1 - n)
        for n in (0, 1, 2)
    }]
    return out


def ad_b_action(ctx: MCContext, b: tuple) -> ActionMaps:
    """Tabulated action of ad_b for a layered b, combined linearly from the per-symbol tables."""
    b = element(ctx, b)
    require_ideal(ctx, b, "bracketing parameter")
    b_names = ctx.l3.pair.b_names
    coeffs = [0] * len(b_names)
    for nm, c in b.coords.items():
        K, b_sym = ctx.l3.decode[nm]
        if K:
            raise ValueError("bracketing parameters have degree 0")
        coeffs[b_names.index(b_sym)] = c
    return combination(ctx.ad_symbols, coeffs)


def bridge_defects(ctx: MCContext, b: tuple):
    """The identities tying the inner derivation to the deformed brackets.

    Curvature of ad_b is the differential of b, its degree-0 action is the
    binary bracket with b, and its pairing is the ternary bracket with b;
    checked on all basis instances with truncated-polynomial coefficients.
    """
    l3 = ctx.l3
    st = ctx.structure
    maps = ad_b_action(ctx, b).maps[0]
    b = element(ctx, b)
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


def action_tables(ctx: MCContext, action: dict) -> dict:
    """{n: skew table of degree 1 - n} with truncated-polynomial values, from a layered action."""
    out = {}
    for n, entries in action.items():
        table = out[n] = MultiTable(ctx.l3.basis, n, "skew", 1 - n)
        for key, value in entries.items():
            table.values[key] = element(ctx, value)
    return out


def layered_tables(tables: dict) -> dict:
    """{n: {key: (den, {symbol: integer t-layers})}} from {n: MultiTable} with rational or
    truncated-polynomial values."""
    return {n: {key: layered(val) for key, val in table.values.items()} for n, table in tables.items()}


def derivation_action(ctx: MCContext, delta: Derivation) -> dict:
    """The layered action of a Derivation with ideal truncated-polynomial images, tabulated by ``ActionMaps``."""
    for nm, row in delta.images.items():
        require_ideal(ctx, GradedElement(delta.algebra.basis, row), "derivation parameter image of %r" % (nm,))
    return layered_tables(ActionMaps(ctx.l3, [delta]).maps[0])


def random_coefficients(rng: random.Random, dim: int, order: int) -> dict:
    """{r: t-layers of c_r} for about two thirds of r < dim: ideal coefficients whose
    layers have denominators 1, 2 and 3."""
    out = {}
    for r in range(dim):
        layers = tuple(
            (k, Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2, 3]))) for k in range(1, order + 1) if rng.random() < 0.7
        )
        if layers and rng.random() < 0.7:
            out[r] = layers
    return out


def basis_combination(ctx: MCContext, ders, coeffs: dict) -> Derivation:
    """sum_r c_r der_r with truncated-polynomial images, from {r: t-layers of c_r}."""
    terms = []
    for r, layers in coeffs.items():
        dense = [0] * (ctx.order + 1)
        for k, c in layers:
            dense[k] = c
        terms.append((TruncatedPoly(ctx.order, dense), ders[r]))
    return derivation_sum(ctx.l3.pair.algebra, terms)


def check_basis_action(ctx: MCContext, action: ActionMaps, rng: random.Random) -> None:
    """Random ideal c_r over the derivations of ``action``: the layered action of sum_r c_r der_r
    built by ``mc.layered_action`` equals ``derivation_action`` of the combined Derivation table by
    table, and ``mc.gauge_h`` returns the same MCElement through both."""
    coeffs = random_coefficients(rng, action.dim(), ctx.order)
    got = mcmod.layered_action(ctx, action.integer_entries, coeffs)
    expected = derivation_action(ctx, basis_combination(ctx, action.ders, coeffs))
    where = (ctx.l3.pair.algebra.names, ctx.l3.pair.a_names, ctx.order)
    assert action_tables(ctx, got) == action_tables(ctx, expected), where
    xi = mcmod.random_mc_element(ctx, rng)
    assert mcmod.gauge_h(ctx, got, xi) == mcmod.gauge_h(ctx, expected, xi), where


# --- the gauge recursion over every ordered composition -------------------------

def compositions(k: int, n: int) -> list:
    """The ordered compositions (k_1, ..., k_n) of k into n positive parts."""
    if n == 1:
        return [(k,)]
    return [(first,) + rest for first in range(1, k) for rest in compositions(k - first, n - 1)]


def gauge_series_by_compositions(ctx: MCContext, xi, table: dict, sign: int) -> GradedElement:
    """The gauge series of xi twisting a layered table with a sign, as ``mc._gauge_series``' docstring
    writes it: xi - sum_k e_k / k! for e_1 = term([]) and

      e_{k+1} = sum_{n=1..min(k,2)} 1/n! sum_{k_1+...+k_n=k} k!/(k_1!...k_n!) term([e_{k_1}, ..., e_{k_n}]),

    every ordered composition summed on its own (no pair of corrections folded into one) with its
    weight from ``math.factorial``, on truncated-polynomial elements; term is the twisted series
    ``mc._Twist``, so only the recursion and its weights are independent of the package."""
    twist = mcmod._Twist(ctx, table, xi.value, sign)

    def term(args) -> GradedElement:
        return element(ctx, twist([layered(a) for a in args]))

    e = {1: term([])}
    for k in range(1, ctx.order):
        e[k + 1] = ctx.l3.zero()
        for n in range(1, min(k, 2) + 1):
            for parts in compositions(k, n):
                weight = Fraction(factorial(k), prod(factorial(p) for p in parts) * factorial(n))
                e[k + 1] = e[k + 1] + term([e[p] for p in parts]).scale(weight)
    out = element(ctx, xi.value)
    for k, ek in e.items():
        out = out - ek.scale(Fraction(1, factorial(k)))
    return out


# --- the classical gauge series with b as the bracket's first argument ----------

def gauge_getzler_direct(ctx: MCContext, b: tuple, xi) -> "mcmod.MCElement":
    """Gauge action of a degree-0 layered value, each term sum_j 1/j! l_{j+n+1}(xi^j, b, args) read from
    the structure's brackets with b among the arguments."""
    elem = element(ctx, b)
    require_ideal(ctx, elem, "gauge parameter")
    if not elem.is_zero() and elem.degree() != 0:
        raise ValueError("gauge parameters have degree 0")
    xv = xi.value
    twist = mcmod._Twist(ctx, ctx.brackets, xv)
    return mcmod._gauge_series(ctx, xv, lambda args: twist([b] + args))


def fractional_parameter(ctx: MCContext, rng: random.Random, skip=()) -> tuple:
    """A degree-0 layered value with a nonzero coefficient of denominator 1, 3 or 5 in every layer
    t^1..t^N on each complement symbol outside ``skip``."""
    coords = {}
    for nm in ctx.l3.pair.b_names:
        if nm not in skip:
            layers = [Fraction(rng.choice([-4, -2, -1, 1, 2, 5]), rng.choice([1, 3, 5])) for _ in range(ctx.order)]
            coords[nm] = TruncatedPoly(ctx.order, [0] + layers)
    return layered(GradedElement(ctx.l3.basis, coords))


def check_getzler_routes(ctx: MCContext, rng: random.Random, draws: int = 2) -> int:
    """``mc.gauge_getzler`` equals ``gauge_getzler_direct`` for b = 0 and for fractional b on random
    Maurer-Cartan elements; returns how many of the results differ from xi."""
    moved = 0
    for _ in range(draws):
        xi = mcmod.random_mc_element(ctx, rng)
        for b in ((1, {}), fractional_parameter(ctx, rng)):
            got = mcmod.gauge_getzler(ctx, b, xi)
            where = (ctx.l3.pair.algebra.names, ctx.l3.pair.a_names, ctx.order, xi, b)
            assert got == gauge_getzler_direct(ctx, b, xi), where
            moved += got != xi
    return moved
