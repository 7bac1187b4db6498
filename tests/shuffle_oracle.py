"""Reference evaluators, slow and obviously faithful, that the tests compare the package against.

The package has one evaluator per identity (the ``graded.ShuffleInsertion``
sums).  This module holds the definitions beside it: the sign and the
Koszul signs of a permutation (Lada-Markl 1995) and of a 2-block shuffle;
the 2- and 3-block shuffles themselves; single-symbol table insertion; the
per-tuple Jacobi defect; arity-0 coderivations and contraction; the sum
(``combine``) and the commutator of coderivations; the word-level
coalgebra (coderivations on symmetric words, comultiplication, the
coLeibniz defect); the inverse shift transport; and the word-by-subset sums
(every normalized word, every position subset, the chunk's value inserted
with its sign) behind ``compose``, ``contract``, ``jacobi_square`` and
``check_action_axioms``.
"""

from itertools import combinations

from l3pair.deraction import BRACKET_RULE, COMMUTATOR_RULE
from l3pair.graded import Accumulator, MultiTable, ShuffleInsertion, normalize_tuple, shift_table
from l3pair.linfty import Coderivation, LInfinityStructure, compose_terms, iter_normalized_tuples
from l3pair.vectors import GradedBasis, GradedElement, multilinear

from gauge_oracle import der_coords, linear_combination


# --- reference signs and shuffles --------------------------------------------

def perm_sign(images) -> int:
    """Sign of a permutation given as a tuple of 1-based images."""
    n = len(images)
    sign = 1
    for p in range(n):
        for q in range(p + 1, n):
            if images[p] > images[q]:
                sign = -sign
    return sign


def shuffles2(p: int, q: int) -> list:
    """All (p,q)-shuffles of {1..p+q}, lexicographic in the first block."""
    if p < 0 or q < 0:
        return []
    n = p + q
    universe = range(1, n + 1)
    out = []
    for first in combinations(universe, p):
        rest = tuple(i for i in universe if i not in first)
        out.append(first + rest)
    return out


def shuffles3(i: int, j: int, k: int) -> list:
    """All (i,j,k)-shuffles of {1..i+j+k}, lexicographic by blocks."""
    if i < 0 or j < 0 or k < 0:
        return []
    n = i + j + k
    universe = range(1, n + 1)
    out = []
    for first in combinations(universe, i):
        remaining = tuple(x for x in universe if x not in first)
        for second in combinations(remaining, j):
            third = tuple(x for x in remaining if x not in second)
            out.append(first + second + third)
    return out


def koszul_epsilon(images, degrees) -> int:
    """Symmetric Koszul sign of the permutation on elements of the given degrees."""
    n = len(images)
    if len(degrees) != n:
        raise ValueError("permutation length %d vs %d degrees" % (n, len(degrees)))
    exp = 0
    for p in range(n):
        dp = degrees[images[p] - 1]
        if dp % 2 == 0:
            continue
        for q in range(p + 1, n):
            if images[p] > images[q] and degrees[images[q] - 1] % 2:
                exp += 1
    return -1 if exp % 2 else 1


def koszul_chi(images, degrees) -> int:
    """sgn * epsilon: the skew-symmetric Koszul sign."""
    return perm_sign(images) * koszul_epsilon(images, degrees)


def decalage_sign(n: int, degrees) -> int:
    """(-1)^(sum_i (n-i)|v_i|), the sign of the degree-shift isomorphism."""
    if len(degrees) != n:
        raise ValueError("expected %d degrees" % n)
    exp = sum((n - i) * d for i, d in enumerate(degrees, start=1))
    return -1 if exp % 2 else 1


# --- selection signs -------------------------------------------------------
#
# A 2-block shuffle of a word is determined by the sorted set S of selected
# positions (0-based); the crossings are the pairs (s in S, t not in S, t < s).

def selection_epsilon(parities, sel) -> int:
    """epsilon of the shuffle moving positions ``sel`` (sorted) to the front.

    ``parities`` are the degree parities of the word entries, in place.
    """
    exp = 0
    pref = 0  # parity count of unselected entries seen so far
    j = 0
    for pos in range(len(parities)):
        if j < len(sel) and sel[j] == pos:
            if parities[pos]:
                exp += pref
            j += 1
        else:
            pref += parities[pos]
    return -1 if exp % 2 else 1


def selection_chi(parities, sel) -> int:
    """chi of the shuffle moving positions ``sel`` (sorted) to the front."""
    exp = 0
    pref_cnt = 0
    pref_par = 0
    j = 0
    for pos in range(len(parities)):
        if j < len(sel) and sel[j] == pos:
            exp += pref_cnt
            if parities[pos]:
                exp += pref_par
            j += 1
        else:
            pref_cnt += 1
            pref_par += parities[pos]
    return -1 if exp % 2 else 1


# --- reference table lookups, the Jacobi defect, contraction --------------

def _complement(key, sel):
    sel_set = set(sel)
    return tuple(key[p] for p in range(len(key)) if p not in sel_set)


def insert_items(table, sym: str, rest):
    """(sign, value-items) for the tuple (sym,) + rest with ``rest`` sorted.

    Returns None when the word vanishes or the table has no entry.  This
    is the single-symbol insertion of the word-by-subset sums.
    """
    space = table.space
    idx = space.index
    si = idx(sym)
    sp = space.parity(sym)
    symmetric = table.symmetry == "symmetric"
    exp = 0
    pos = 0
    for nm in rest:
        ni = idx(nm)
        if ni < si:
            if symmetric:
                exp += sp & space.parity(nm)
            else:
                exp += 1 + (sp & space.parity(nm))
            pos += 1
        elif ni == si:
            if (symmetric and sp) or (not symmetric and not sp):
                return None
            break
        else:
            break
    key = rest[:pos] + (sym,) + rest[pos:]
    val = table.values.get(key)
    if val is None:
        return None
    if exp % 2:
        return [(nm, -c) for nm, c in val.coords.items()]
    return list(val.coords.items())


def jacobi_defect_basis(L: LInfinityStructure, names) -> GradedElement:
    """Higher Jacobi defect on a tuple of basis symbols.

    The arity-n rule is the vanishing of
    sum over i and (i, n-i)-shuffles of
    (-1)^i chi(s) [[x_{s(1)},...,x_{s(i)}], x_{s(i+1)},..., x_{s(n)}].
    """
    n = len(names)
    space = L.space
    live = [
        i
        for i in range(1, n + 1)
        if L.bracket(i) is not None
        and L.bracket(n - i + 1) is not None
        and not L.bracket(i).is_zero()
        and not L.bracket(n - i + 1).is_zero()
    ]
    coords = {}
    if not live:
        return space.zero()
    pars = [space.parity(nm) for nm in names]
    sorted_input = all(
        space.index(names[p]) <= space.index(names[p + 1]) for p in range(n - 1)
    )
    for i in live:
        inner_t = L.bracket(i)
        outer_t = L.bracket(n - i + 1)
        isign = -1 if i % 2 else 1
        for sel in combinations(range(n), i):
            chunk = tuple(names[p] for p in sel)
            # chunks of a normalized tuple are normalized
            inner = inner_t.values.get(chunk) if sorted_input else inner_t.eval_basis(chunk)
            if inner is None or inner.is_zero():
                continue
            sign = isign * selection_chi(pars, sel)
            rest = _complement(names, sel)
            for sym, c in inner.coords.items():
                items = insert_items(outer_t, sym, rest)
                if items is None:
                    continue
                if sign == 1:
                    for out, v in items:
                        coords[out] = coords.get(out, 0) + c * v
                else:
                    for out, v in items:
                        coords[out] = coords.get(out, 0) - c * v
    return GradedElement(space, coords)


def jacobi_defect(L: LInfinityStructure, n: int, args) -> GradedElement:
    """Jacobi defect extended multilinearly to arbitrary homogeneous elements."""
    if len(args) != n or n < 1:
        raise ValueError("expected %d arguments" % n)
    if any(a.space != L.space for a in args):
        raise ValueError("argument in the wrong space")
    return multilinear(L.space, lambda names: jacobi_defect_basis(L, names), args)


def arity0_table(space, degree: int, v: GradedElement) -> MultiTable:
    """The arity-0 component of a degree-``degree`` coderivation with value ``v`` on the empty word."""
    t = MultiTable(space, 0, "symmetric", degree)
    t.set_value((), v)
    return t


def arity0_value(D: Coderivation):
    """The value of ``D`` on the empty word, or None when it has no arity-0 component."""
    t = D.component(0)
    return t.evaluate([]) if t is not None else None


def element_coderivation(v: GradedElement, degree=None) -> Coderivation:
    """The coderivation with only an arity-0 component equal to ``v``."""
    if degree is None:
        degree = v.degree()
        if degree is None:
            degree = 0
    return Coderivation(v.space, degree, {0: arity0_table(v.space, degree, v)})


def apply_element(R: Coderivation, v: GradedElement) -> GradedElement:
    """Corestriction on a one-letter word."""
    t = R.components.get(1)
    if t is None:
        return R.space.zero()
    return t.evaluate([v])


def contract(v: GradedElement, R: Coderivation) -> Coderivation:
    """Insertion of a homogeneous shifted element into the first slot of R.

    (v -| R)_n (w) = (-1)^(|R||v|) R_{n+1}(v (.) w); a coderivation of the
    reduced coalgebra of degree |R| + |v|.
    """
    if v.space != R.space:
        raise ValueError("element and coderivation live on different spaces")
    if v.is_zero():
        return Coderivation(R.space, R.degree, {})
    j = v.degree()
    sign = -1 if (R.degree * j) % 2 else 1
    kernel = ShuffleInsertion(R.space.shifted(-1))
    value = arity0_table(R.space, j, v)
    comps = {}
    for n in range(1, max(R.components, default=0)):
        accs = (Accumulator(), Accumulator())
        kernel.add(accs, (None, R.component(n + 1)), (None, value), (0, sign))
        table = kernel.table(accs[1], n, R.degree + j)
        if not table.is_zero():
            comps[n] = table
    return Coderivation(R.space, R.degree + j, comps)


# --- sums and commutators of coderivations ------------------------------------

def combine(terms) -> Coderivation:
    """sum c * F over (c, F) terms of one space and degree, component by component.

    Zero coefficients are skipped and entries (the arity-0 value included)
    that sum to zero are dropped.
    """
    terms = list(terms)
    if not terms:
        raise ValueError("a combination needs at least one term")
    space, degree = terms[0][1].space, terms[0][1].degree
    if any(F.space != space or F.degree != degree for _, F in terms):
        raise ValueError("mismatched coderivations")
    arities = {k for _, F in terms for k in F.components}
    comps = {k: linear_combination([(c, F.component(k)) for c, F in terms], space, k, "symmetric", degree) for k in arities}
    return Coderivation(space, degree, comps)


def commutator_terms(F: Coderivation, G: Coderivation, c=1) -> list:
    """The (c, F, G) terms of c * [F, G] for ``linfty.compose_terms``."""
    sign = -1 if (F.degree * G.degree) % 2 else 1
    return [(c, F, G), (-c * sign, G, F)]


def commutator(F: Coderivation, G: Coderivation, max_arity: int) -> Coderivation:
    """[F, G] = F o G - (-1)^(|F||G|) G o F, componentwise up to max_arity, in a kernel of its own."""
    return compose_terms(ShuffleInsertion(F.space.shifted(-1)), commutator_terms(F, G), max_arity)


# --- symmetric words and the coLeibniz rule --------------------------------
#
# A vector in the symmetric coalgebra is a dict {sorted-name-tuple: coeff};
# the empty tuple is the coalgebra unit.  Tensors are dicts keyed by pairs
# of words.

def make_word(space, names, coeff=1) -> dict:
    sign, key = normalize_tuple(space, names, symmetric=True)
    if sign == 0:
        return {}
    return {key: coeff * sign}


def word_degree(space, key) -> int:
    return sum(space.degree(nm) for nm in key)


def _word_insert(space, word_vec: dict, sym: str, coeff) -> dict:
    """Multiply a word vector by one letter on the left."""
    out = {}
    for key, c in word_vec.items():
        sign, nkey = normalize_tuple(space, (sym,) + key, symmetric=True)
        if sign == 0:
            continue
        out[nkey] = out.get(nkey, 0) + sign * coeff * c
    return {k: c for k, c in out.items() if c}


def _add(vec: dict, key, c) -> None:
    """vec[key] += c, dropping the key when the sum is zero."""
    if c:
        vec[key] = vec.get(key, 0) + c
        if not vec[key]:
            del vec[key]


def extend_coderivation(D: Coderivation, word_vec: dict) -> dict:
    """Apply a coderivation to a vector of symmetric words.

    Uses the corestriction expansion: the arity-0 value is prepended to the
    word, and every component D_k eats each k-subset with its epsilon sign.
    """
    space = D.space
    out = {}
    d0 = arity0_value(D)
    for key, coeff in word_vec.items():
        n = len(key)
        if d0 is not None:
            for sym, c in d0.coords.items():
                ins = _word_insert(space, {key: coeff}, sym, c)
                for k2, c2 in ins.items():
                    _add(out, k2, c2)
        pars = [space.parity(nm) for nm in key]
        for k in range(1, n + 1):
            Dk = D.component(k)
            if Dk is None:
                continue
            for sel in combinations(range(n), k):
                chunk = tuple(key[p] for p in sel)
                inner = Dk.eval_basis(chunk)
                if inner.is_zero():
                    continue
                eps = selection_epsilon(pars, sel)
                rest = _complement(key, sel)
                for sym, c in inner.coords.items():
                    ins = _word_insert(space, {rest: coeff * eps}, sym, c)
                    for k2, c2 in ins.items():
                        _add(out, k2, c2)
    return out


def comultiply(space, word_vec: dict, reduced: bool) -> dict:
    """Full or reduced comultiplication of a word vector, as a tensor dict."""
    out = {}
    for key, coeff in word_vec.items():
        n = len(key)
        pars = [space.parity(nm) for nm in key]
        lo = 1 if reduced else 0
        hi = n - 1 if reduced else n
        for r in range(lo, hi + 1):
            for sel in combinations(range(n), r):
                eps = selection_epsilon(pars, sel)
                left = tuple(key[p] for p in sel)
                right = _complement(key, sel)
                k2 = (left, right)
                out[k2] = out.get(k2, 0) + eps * coeff
    return {k: c for k, c in out.items() if c}


def tensor_coleibniz_defect(D: Coderivation, word_vec: dict, reduced: bool = False) -> dict:
    """Delta(D w) - (D (x) id + id (x) D)(Delta w), with Koszul signs."""
    space = D.space
    lhs = comultiply(space, extend_coderivation(D, word_vec), reduced)
    rhs = {}
    for (w1, w2), coeff in comultiply(space, word_vec, reduced).items():
        for k1, c1 in extend_coderivation(D, {w1: coeff}).items():
            _add(rhs, (k1, w2), c1)
        sgn = -1 if (D.degree * word_degree(space, w1)) % 2 else 1
        for k2, c2 in extend_coderivation(D, {w2: sgn * coeff}).items():
            _add(rhs, (w1, k2), c2)
    defect = dict(lhs)
    for key, c in rhs.items():
        defect[key] = defect.get(key, 0) - c
    return {k: c for k, c in defect.items() if c}


# --- codifferential -> brackets --------------------------------------------

def codifferential_to_brackets(
    Q: Coderivation, arity_cap: int = 3, space: GradedBasis | None = None
) -> LInfinityStructure:
    """Inverse transport; exact round-trip with brackets_to_codifferential."""
    if 0 in Q.components:
        raise ValueError("a codifferential has no arity-0 component")
    base = space if space is not None else Q.space.underlying
    brackets = {}
    for k, table in Q.components.items():
        brackets[k] = shift_table(table)
    return LInfinityStructure(base, brackets, arity_cap=max(arity_cap, max(brackets, default=1)))


# --- word-by-subset sums ---------------------------------------------------

def compose_by_words(F, G, max_arity):
    space = F.space
    out_degree = F.degree + G.degree
    comps = {}
    g0 = arity0_value(G)
    if g0 is not None and F.component(1) is not None:
        val = F.component(1).evaluate([g0])
        if not val.is_zero():
            comps[0] = arity0_table(space, out_degree, val)
    for n in range(1, max_arity + 1):
        live = [k for k in range(1, n + 1) if G.component(k) is not None and F.component(n - k + 1) is not None]
        extra = g0 is not None and F.component(n + 1) is not None
        if not live and not extra:
            continue
        table = MultiTable(space, n, "symmetric", out_degree)
        for key in iter_normalized_tuples(space, n, symmetric=True):
            pars = [space.parity(nm) for nm in key]
            coords = {}
            if extra:
                for sym, c in F.component(n + 1).evaluate([g0, *map(space.unit, key)]).coords.items():
                    coords[sym] = coords.get(sym, 0) + c
            for k in live:
                for sel in combinations(range(n), k):
                    inner = G.component(k).values.get(tuple(key[p] for p in sel))
                    if inner is None:
                        continue
                    eps = selection_epsilon(pars, sel)
                    rest = _complement(key, sel)
                    for sym, c in inner.coords.items():
                        for out, v in insert_items(F.component(n - k + 1), sym, rest) or ():
                            coords[out] = coords.get(out, 0) + eps * c * v
            value = GradedElement(space, coords)
            if not value.is_zero():
                table.values[key] = value
        if not table.is_zero():
            comps[n] = table
    return Coderivation(space, out_degree, comps)


def contract_by_words(v, R):
    if v.is_zero():
        return Coderivation(R.space, R.degree, {})
    j = v.degree()
    sign = -1 if (R.degree * j) % 2 else 1
    comps = {}
    for n in range(1, max(R.components, default=0)):
        Rn1 = R.component(n + 1)
        if Rn1 is None:
            continue
        table = MultiTable(R.space, n, "symmetric", R.degree + j)
        for key in iter_normalized_tuples(R.space, n, symmetric=True):
            val = Rn1.evaluate([v, *map(R.space.unit, key)])
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
        return action.maps[r][0].evaluate([])
    t = action.maps[r].get(n)
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
        mu_t = action.maps[r].get(m)
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
            accumulate(mu_t.evaluate([inner, *map(space.unit, rest)]), chi)
    for p in range(0, n + 1):
        m = n - p + 1
        outer_t = L.bracket(m)
        if outer_t is None or outer_t.is_zero():
            continue
        if p > 0 and (action.maps[r].get(p) is None or action.maps[r].get(p).is_zero()):
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
            accumulate(outer_t.evaluate([mu_val, *map(space.unit, rest)]), -psign * chi)
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
                lhs = lhs + action.maps[u][0].evaluate([]).scale(c)
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
            outer = action.maps[first].get(m)
            if outer is None or outer.is_zero():
                continue
            if p > 0 and (
                action.maps[second].get(p) is None or action.maps[second].get(p).is_zero()
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
                accumulate(outer.evaluate([mu_val, *map(space.unit, rest)]), sign * chi)
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
            return any(not maps[0].is_zero() for maps in action.maps)
        return any(
            action.maps[r].get(m) is not None and not action.maps[r].get(m).is_zero()
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
