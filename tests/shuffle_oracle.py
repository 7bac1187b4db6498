"""Word-by-subset reference evaluation of the shuffle-insertion sums.

These are the straightforward evaluators the package's support-driven
kernel replaces: walk every normalized word up to the arity, then every
position subset of it, look the chunk up in the inner table and insert the
result into the outer table with its Koszul sign.  They are slow and
obviously faithful to the definitions, which makes them the oracle for
``compose``, ``contract``, ``jacobi_sweep`` and ``check_action_axioms``.
"""

from itertools import combinations

from l3pair.deraction import BRACKET_RULE, COMMUTATOR_RULE, der_coords
from l3pair.graded import GradedElement, MultiTable
from l3pair.linfty import Coderivation, iter_normalized_tuples, jacobi_defect_basis
from l3pair.signs import selection_chi, selection_epsilon


def _complement(key, sel):
    return tuple(key[p] for p in range(len(key)) if p not in set(sel))


def compose_by_words(F, G, max_arity):
    space = F.space
    out_degree = F.degree + G.degree
    comps = {}
    comp0 = None
    if G.comp0 is not None and F.component(1) is not None:
        val = F.component(1).evaluate([G.comp0])
        if not val.is_zero():
            comp0 = val
    for n in range(1, max_arity + 1):
        live = [k for k in range(1, n + 1) if G.component(k) is not None and F.component(n - k + 1) is not None]
        extra = G.comp0 is not None and F.component(n + 1) is not None
        if not live and not extra:
            continue
        table = MultiTable(space, n, "symmetric", out_degree)
        for key in iter_normalized_tuples(space, n, symmetric=True):
            pars = [space.parity(nm) for nm in key]
            coords = {}
            if extra:
                for sym, c in F.component(n + 1).eval_prepend(G.comp0, key).coords.items():
                    coords[sym] = coords.get(sym, 0) + c
            for k in live:
                for sel in combinations(range(n), k):
                    inner = G.component(k).get_sorted(tuple(key[p] for p in sel))
                    if inner is None:
                        continue
                    eps = selection_epsilon(pars, sel)
                    rest = _complement(key, sel)
                    for sym, c in inner.coords.items():
                        for out, v in F.component(n - k + 1).insert_items(sym, rest) or ():
                            coords[out] = coords.get(out, 0) + eps * c * v
            value = GradedElement(space, coords)
            if not value.is_zero():
                table.values[key] = value
        if not table.is_zero():
            comps[n] = table
    return Coderivation(space, out_degree, comps, comp0=comp0)


def contract_by_words(v, R):
    if v.is_zero():
        return Coderivation(R.space, R.degree, {})
    j = v.degree()
    sign = -1 if (R.degree * j) % 2 else 1
    comps = {}
    for n in range(1, R.max_arity()):
        Rn1 = R.component(n + 1)
        if Rn1 is None:
            continue
        table = MultiTable(R.space, n, "symmetric", R.degree + j)
        for key in iter_normalized_tuples(R.space, n, symmetric=True):
            val = Rn1.eval_prepend(v, key)
            if not val.is_zero():
                table.values[key] = val.scale(sign)
        if not table.is_zero():
            comps[n] = table
    return Coderivation(R.space, R.degree + j, comps)


def jacobi_sweep_by_words(L, arities, limit=16):
    failures = []
    for n in arities:
        if not any(L.bracket(i) is not None and L.bracket(n - i + 1) is not None for i in range(1, n + 1)):
            continue
        for key in iter_normalized_tuples(L.space, n, symmetric=False):
            defect = jacobi_defect_basis(L, key)
            if not defect.is_zero():
                failures.append((n, key, defect))
                if len(failures) >= limit:
                    return failures
    return failures


def _mu_basis(action, r: int, n: int, key):
    if n == 0:
        return action.kappas[r]
    t = action.mu_table(r, n)
    if t is None or t.is_zero():
        return action.l3.zero()
    return t.eval_basis(key)


def bracket_rule_defect(action, r: int, names):
    """Defect of the bracket-compatibility equation on one derivation and tuple.

    The equation matches the action applied after brackets against brackets
    of acted-on arguments plus the curvature insertion, with chi signs over
    2-block shuffles on both sides; arity caps truncate every term.
    """
    L = action.l3.structure()
    space = action.l3.basis
    n = len(names)
    pars = [space.parity(nm) for nm in names]
    total = {}

    def accumulate(elem: GradedElement, sign: int):
        for sym, c in elem.coords.items():
            total[sym] = total.get(sym, 0) + (c if sign == 1 else -c)

    for p in range(1, n + 1):
        inner_t = L.bracket(p)
        if inner_t is None or inner_t.is_zero():
            continue
        m = n - p + 1
        mu_t = action.mu_table(r, m)
        if mu_t is None or mu_t.is_zero():
            continue
        for sel in combinations(range(n), p):
            chunk = tuple(names[q] for q in sel)
            inner = inner_t.eval_basis(chunk)
            if inner.is_zero():
                continue
            chi = selection_chi(pars, sel)
            sel_set = set(sel)
            rest = tuple(names[q] for q in range(n) if q not in sel_set)
            accumulate(mu_t.eval_prepend(inner, rest), chi)
    for p in range(0, n + 1):
        m = n - p + 1
        outer_t = L.bracket(m)
        if outer_t is None or outer_t.is_zero():
            continue
        if p > 0 and (action.mu_table(r, p) is None or action.mu_table(r, p).is_zero()):
            continue
        psign = -1 if (p + 1) % 2 else 1
        for sel in combinations(range(n), p):
            chunk = tuple(names[q] for q in sel)
            mu_val = _mu_basis(action, r, p, chunk)
            if mu_val.is_zero():
                continue
            chi = selection_chi(pars, sel)
            sel_set = set(sel)
            rest = tuple(names[q] for q in range(n) if q not in sel_set)
            accumulate(outer_t.eval_prepend(mu_val, rest), -psign * chi)
    return GradedElement(space, total)


def commutator_rule_defect(action, r: int, s: int, comm_coords, names):
    """Defect of the commutator-compatibility equation on one derivation pair."""
    space = action.l3.basis
    n = len(names)
    pars = [space.parity(nm) for nm in names]
    lhs = space.zero()
    if n == 0:
        for u, c in enumerate(comm_coords):
            if c:
                lhs = lhs + action.kappas[u].scale(c)
    elif n <= 2:
        for u, c in enumerate(comm_coords):
            if c:
                lhs = lhs + _mu_basis(action, u, n, tuple(names)).scale(c)
    total = dict(lhs.coords)

    def accumulate(elem: GradedElement, sign: int):
        for sym, c in elem.coords.items():
            total[sym] = total.get(sym, 0) + (c if sign == 1 else -c)

    for p in range(0, n + 1):
        m = n - p + 1
        for first, second in ((r, s), (s, r)):
            outer = action.mu_table(first, m)
            if outer is None or outer.is_zero():
                continue
            if p > 0 and (
                action.mu_table(second, p) is None or action.mu_table(second, p).is_zero()
            ):
                continue
            sign = -1 if (first, second) == (r, s) else 1
            for sel in combinations(range(n), p):
                chunk = tuple(names[q] for q in sel)
                mu_val = _mu_basis(action, second, p, chunk)
                if mu_val.is_zero():
                    continue
                chi = selection_chi(pars, sel)
                sel_set = set(sel)
                rest = tuple(names[q] for q in range(n) if q not in sel_set)
                accumulate(outer.eval_prepend(mu_val, rest), sign * chi)
    return GradedElement(space, total)


def check_action_axioms_by_words(action, max_n=4, limit=16):
    """Sweep both compatibility equations over all derivations and basis tuples.

    Returns defect records {identity, inputs, defect}; an empty list means
    the maps define an action.  Equation instances that are structurally zero
    (every term hits an empty table) are skipped without enumeration.
    """
    l3 = action.l3
    L = l3.structure()
    space = l3.basis
    defects = []

    def any_mu(m: int) -> bool:
        if m == 0:
            return any(not kap.is_zero() for kap in action.kappas)
        return any(
            action.mu_table(r, m) is not None and not action.mu_table(r, m).is_zero()
            for r in range(action.dim())
        )

    def bracket_rule_live(n: int) -> bool:
        for p in range(1, n + 1):
            if L.bracket(p) is not None and not L.bracket(p).is_zero() and any_mu(n - p + 1):
                return True
        for p in range(0, n + 1):
            m = n - p + 1
            if L.bracket(m) is not None and not L.bracket(m).is_zero() and any_mu(p):
                return True
        return False

    for n in range(0, max_n + 1):
        if not bracket_rule_live(n):
            continue
        keys = ((),) if n == 0 else iter_normalized_tuples(space, n, symmetric=False)
        for key in keys:
            for r in range(action.dim()):
                defect = bracket_rule_defect(action, r, key)
                if not defect.is_zero():
                    defects.append(
                        {
                            "identity": "%s-n%d" % (BRACKET_RULE, n),
                            "inputs": ["der%d" % r] + list(key),
                            "defect": defect,
                        }
                    )
                    if len(defects) >= limit:
                        return defects

    comm = {}
    for r in range(action.dim()):
        for s in range(r + 1, action.dim()):
            c = der_coords(action.ders, action.ders[r].commutator(action.ders[s]))
            if c is None:
                raise ValueError("derivation basis is not closed under commutator")
            comm[(r, s)] = c

    def commutator_rule_live(n: int) -> bool:
        if n <= 2 and (any_mu(n) or n == 0):
            return True
        return any(any_mu(n - p + 1) and (p == 0 or any_mu(p)) for p in range(0, n + 1))

    for n in range(0, max_n):
        if not commutator_rule_live(n):
            continue
        keys = ((),) if n == 0 else iter_normalized_tuples(space, n, symmetric=False)
        for key in keys:
            for (r, s), coords in comm.items():
                defect = commutator_rule_defect(action, r, s, coords, key)
                if not defect.is_zero():
                    defects.append(
                        {
                            "identity": "%s-n%d" % (COMMUTATOR_RULE, n),
                            "inputs": ["der%d" % r, "der%d" % s] + list(key),
                            "defect": defect,
                        }
                    )
                    if len(defects) >= limit:
                        return defects
    return defects
