"""Homotopy Lie structures and the coderivation calculus that encodes them.

Two equivalent pictures are implemented side by side:

* a bracket picture: a graded space with skew multilinear brackets of
  degree 2-k per arity k, subject to the higher Jacobi rules; and
* a coalgebra picture: degree-1 coderivations of the reduced symmetric
  coalgebra on the shifted space, where the Jacobi rules collapse to Q*Q = 0.

``brackets_to_codifferential`` / ``codifferential_to_brackets`` translate
between them (a bijection), ``jacobi_defect`` measures failure of the Jacobi
rules directly, and ``check_codifferential`` measures Q*Q componentwise.
The two defect notions are cross-checked in the test suite.

Coderivations are stored by corestriction: component k is a symmetric
MultiTable S^k -> V, plus an optional arity-0 component (an element, the
value on the empty word).  Composition, contraction and the Jacobi sweep
are all sums over 2-block shuffles of one table inserted into another.
Each is a ``graded.ShuffleInsertion`` sum, which starts from the stored
entries of both tables, so a word neither table reaches is never visited.
``compose`` and ``commutator`` are one linear combination of composites,
accumulated in one such sum per arity; ``combine`` is the linear
combination of coderivations, component by component.
``jacobi_defect_basis`` evaluates the same Jacobi sum on one given tuple.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement

from .graded import (
    GradedBasis, GradedElement, MultiTable, ShiftedBasis, ShuffleInsertion, linear_combination, multilinear, shift_table
)
from .signs import selection_chi, selection_epsilon


def iter_normalized_tuples(space, n: int, symmetric: bool):
    """All normalized basis n-tuples with nonvanishing word/wedge."""
    names = space.names
    pars = [space.parity(nm) for nm in names]
    for idxs in combinations_with_replacement(range(len(names)), n):
        ok = True
        for a, b in zip(idxs, idxs[1:]):
            if a == b:
                p = pars[a]
                if (symmetric and p) or (not symmetric and not p):
                    ok = False
                    break
        if ok:
            yield tuple(names[i] for i in idxs)


def _complement(key, sel):
    sel_set = set(sel)
    return tuple(key[p] for p in range(len(key)) if p not in sel_set)


class LInfinityStructure:
    """Graded space with skew brackets of degree 2-k, arity capped."""

    def __init__(self, space: GradedBasis, brackets: dict, arity_cap: int = 3):
        self.space = space
        self.arity_cap = arity_cap
        self.brackets = {}
        for k, table in brackets.items():
            if table is None:
                continue
            if k < 1 or k > arity_cap:
                raise ValueError("bracket arity %d outside 1..%d" % (k, arity_cap))
            if table.space != space or table.arity != k:
                raise ValueError("bracket table %d does not match the space" % k)
            if table.is_symmetric or table.map_degree != 2 - k:
                raise ValueError("arity-%d bracket must be skew of degree %d" % (k, 2 - k))
            self.brackets[k] = table

    def bracket(self, k: int):
        return self.brackets.get(k)

    def evaluate(self, k: int, args) -> GradedElement:
        t = self.brackets.get(k)
        if t is None:
            return self.space.zero()
        return t.evaluate(args)

    def differential(self):
        return self.brackets.get(1)


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
            inner = inner_t.get_sorted(chunk) if sorted_input else inner_t.eval_basis(chunk)
            if inner is None or inner.is_zero():
                continue
            sign = isign * selection_chi(pars, sel)
            rest = _complement(names, sel)
            for sym, c in inner.coords.items():
                items = outer_t.insert_items(sym, rest)
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


def jacobi_sweep(L: LInfinityStructure, arities, limit: int = 16):
    """Evaluate the Jacobi defect on every normalized basis tuple.

    Returns up to ``limit`` failures as (n, tuple, defect), in tuple order.
    Each arity is one support-driven shuffle-insertion sum, so tuples that
    no pair of stored entries reaches cost nothing.
    """
    live = {k: t for k, t in L.brackets.items() if not t.is_zero()}
    kernel = ShuffleInsertion(L.space, symmetric=False)
    failures = []
    for n in arities:
        acc = {}
        for i in range(1, n + 1):
            if i in live:
                kernel.add(acc, live.get(n - i + 1), live[i].values.items(), -1 if i % 2 else 1)
        for _, key, defect in kernel.nonzero(acc):
            failures.append((n, key, defect))
            if len(failures) >= limit:
                return failures
    return failures


class Coderivation:
    """Coderivation of the (reduced or full) symmetric coalgebra on a shifted basis.

    Determined by its corestriction: ``components[k]`` is the symmetric table
    S^k -> V, and ``comp0`` (when present) is the value on the empty word,
    which makes this a coderivation of the full coalgebra.
    """

    def __init__(self, space: ShiftedBasis, degree: int, components: dict | None = None, comp0: GradedElement | None = None):
        self.space = space
        self.degree = degree
        self.components = {}
        for k, table in (components or {}).items():
            if table is None or table.is_zero():
                continue
            if k < 1:
                raise ValueError("component arities start at 1; use comp0")
            if table.space != space or not table.is_symmetric or table.arity != k:
                raise ValueError("component %d must be a symmetric table over the space" % k)
            if table.map_degree != degree:
                raise ValueError("component %d has degree %d, expected %d" % (k, table.map_degree, degree))
            self.components[k] = table
        if comp0 is not None and comp0.is_zero():
            comp0 = None
        if comp0 is not None and comp0.space != space:
            raise ValueError("arity-0 component lives in the wrong space")
        self.comp0 = comp0

    def component(self, k: int):
        if k == 0:
            return self.comp0
        return self.components.get(k)

    def max_arity(self) -> int:
        return max(self.components) if self.components else 0

    def is_zero(self) -> bool:
        return not self.components and self.comp0 is None

    def is_reduced(self) -> bool:
        return self.comp0 is None

    def truncate(self) -> "Coderivation":
        """Forget the value on the empty word (pass to the reduced coalgebra)."""
        return Coderivation(self.space, self.degree, self.components)

    def apply_element(self, v: GradedElement) -> GradedElement:
        """Corestriction on a one-letter word."""
        t = self.components.get(1)
        if t is None:
            return self.space.zero()
        return t.evaluate([v])

    def table(self, k: int):
        """Component k as a table, the arity-0 value as an arity-0 table; None when absent."""
        if k:
            return self.components.get(k)
        if self.comp0 is None:
            return None
        t = MultiTable(self.space, 0, "symmetric", self.degree)
        t.values[()] = self.comp0
        return t

    def entries(self, k: int):
        """The (sorted key, value) pairs of component k; the arity-0 value sits under ()."""
        t = self.table(k)
        return t.values.items() if t is not None else ()

    def scale(self, c) -> "Coderivation":
        return combine([(c, self)])

    def __eq__(self, other):
        return (
            isinstance(other, Coderivation)
            and self.space == other.space
            and self.degree == other.degree
            and self.components == other.components
            and self.comp0 == other.comp0
        )

    def __repr__(self):
        ks = sorted(self.components)
        return "Coderivation(degree=%d, arities=%s%s)" % (
            self.degree,
            ks,
            ", comp0" if self.comp0 is not None else "",
        )


def element_coderivation(v: GradedElement, degree=None) -> Coderivation:
    """The coderivation with only an arity-0 component equal to ``v``."""
    if degree is None:
        degree = v.degree()
        if degree is None:
            degree = 0
    return Coderivation(v.space, degree, {}, comp0=v)


def compose(F: Coderivation, G: Coderivation, max_arity: int) -> Coderivation:
    """Corestriction components of F o G up to the given arity."""
    return _compose_terms([(1, F, G)], max_arity)


def commutator(F: Coderivation, G: Coderivation, max_arity: int | None = None) -> Coderivation:
    """[F, G] = F o G - (-1)^(|F||G|) G o F, componentwise up to max_arity."""
    if max_arity is None:
        max_arity = F.max_arity() + G.max_arity()
    sign = -1 if (F.degree * G.degree) % 2 else 1
    return _compose_terms([(1, F, G), (-sign, G, F)], max_arity)


def _compose_terms(terms, max_arity: int) -> Coderivation:
    """sum c * F o G over (c, F, G) terms of one space and degree, up to max_arity.

    Component n collects, for each term and splitting (k, n-k+1) with both
    components present, the shuffle sum epsilon(s) F_{n-k+1}(G_k(chunk) (.) rest);
    k = 0 is the insertion of G's arity-0 value, and n = 0 is F_1 of it.
    """
    space = terms[0][1].space
    degree = terms[0][1].degree + terms[0][2].degree
    if any(F.space != space or G.space != space for _, F, G in terms):
        raise ValueError("coderivations live on different spaces")
    kernel = ShuffleInsertion(space, symmetric=True)
    comps = {}
    for n in range(max_arity + 1):
        acc = {}
        for c, F, G in terms:
            for k in range(n + 1):
                inner = G.entries(k)
                if inner:
                    kernel.add(acc, F.component(n - k + 1), inner, c)
        comps[n] = kernel.table(acc, n, degree)
    comp0 = comps.pop(0).values.get(())
    return Coderivation(space, degree, comps, comp0=comp0)


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
    arities = {0} | {k for _, F in terms for k in F.components}
    comps = {k: linear_combination([(c, F.table(k)) for c, F in terms], space, k, "symmetric", degree) for k in arities}
    comp0 = comps.pop(0).values.get(())
    return Coderivation(space, degree, comps, comp0=comp0)


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
    kernel = ShuffleInsertion(R.space, symmetric=True)
    comps = {}
    for n in range(1, R.max_arity()):
        acc = {}
        kernel.add(acc, R.component(n + 1), [((), v)], sign)
        table = kernel.table(acc, n, R.degree + j)
        if not table.is_zero():
            comps[n] = table
    return Coderivation(R.space, R.degree + j, comps)


# --- symmetric words and the coLeibniz rule --------------------------------
#
# A vector in the symmetric coalgebra is a dict {sorted-name-tuple: coeff};
# the empty tuple is the coalgebra unit.  Tensors are dicts keyed by pairs
# of words.

def make_word(space, names, coeff=1) -> dict:
    from .graded import normalize_tuple

    sign, key = normalize_tuple(space, names, symmetric=True)
    if sign == 0:
        return {}
    return {key: coeff * sign}


def word_degree(space, key) -> int:
    return sum(space.degree(nm) for nm in key)


def _word_insert(space, word_vec: dict, sym: str, coeff) -> dict:
    """Multiply a word vector by one letter on the left."""
    from .graded import normalize_tuple

    out = {}
    for key, c in word_vec.items():
        sign, nkey = normalize_tuple(space, (sym,) + key, symmetric=True)
        if sign == 0:
            continue
        out[nkey] = out.get(nkey, 0) + sign * coeff * c
    return {k: c for k, c in out.items() if c}


def extend_coderivation(D: Coderivation, word_vec: dict) -> dict:
    """Apply a coderivation to a vector of symmetric words.

    Uses the corestriction expansion: the arity-0 value is prepended to the
    word, and every component D_k eats each k-subset with its epsilon sign.
    """
    space = D.space
    out = {}

    def add(key, c):
        if c:
            out[key] = out.get(key, 0) + c
            if not out[key]:
                del out[key]

    for key, coeff in word_vec.items():
        n = len(key)
        if D.comp0 is not None:
            for sym, c in D.comp0.coords.items():
                ins = _word_insert(space, {key: coeff}, sym, c)
                for k2, c2 in ins.items():
                    add(k2, c2)
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
                        add(k2, c2)
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

    def add(key, c):
        if c:
            rhs[key] = rhs.get(key, 0) + c
            if not rhs[key]:
                del rhs[key]

    for (w1, w2), coeff in comultiply(space, word_vec, reduced).items():
        for k1, c1 in extend_coderivation(D, {w1: coeff}).items():
            add((k1, w2), c1)
        sgn = -1 if (D.degree * word_degree(space, w1)) % 2 else 1
        for k2, c2 in extend_coderivation(D, {w2: sgn * coeff}).items():
            add((w1, k2), c2)
    defect = dict(lhs)
    for key, c in rhs.items():
        defect[key] = defect.get(key, 0) - c
    return {k: c for k, c in defect.items() if c}


# --- brackets <-> codifferential -------------------------------------------

def brackets_to_codifferential(L: LInfinityStructure) -> Coderivation:
    """Transport the brackets to the degree-1 codifferential on the shifted space."""
    comps = {}
    for k, table in L.brackets.items():
        if table.is_zero():
            continue
        comps[k] = shift_table(table, "to_shifted")
    return Coderivation(L.space.shifted(1), 1, comps)


def codifferential_to_brackets(Q: Coderivation, arity_cap: int = 3, space: GradedBasis | None = None) -> LInfinityStructure:
    """Inverse transport; exact round-trip with brackets_to_codifferential."""
    if not Q.is_reduced():
        raise ValueError("a codifferential has no arity-0 component")
    base = space if space is not None else Q.space.underlying
    brackets = {}
    for k, table in Q.components.items():
        brackets[k] = shift_table(table, "to_unshifted")
    return LInfinityStructure(base, brackets, arity_cap=max(arity_cap, max(brackets, default=1)))


def check_codifferential(Q: Coderivation, max_arity: int, limit: int = 16):
    """Nonzero components of Q o Q up to max_arity, as (arity, key, defect)."""
    if Q.degree != 1:
        raise ValueError("a codifferential must have degree 1")
    square = compose(Q, Q, max_arity)
    defects = []
    for k in sorted(square.components):
        for key, val in sorted(square.components[k].values.items()):
            defects.append((k, key, val))
            if len(defects) >= limit:
                return defects
    if square.comp0 is not None:
        defects.append((0, (), square.comp0))
    return defects
