"""Homotopy Lie structures and the coderivation calculus that encodes them.

An ``LInfinityStructure`` is a graded space with skew multilinear brackets
of degree 2-k per arity k, subject to the higher Jacobi rules;
``jacobi_square`` evaluates those rules on every basis tuple.
``brackets_to_codifferential`` transports the brackets to a degree-1
coderivation Q of the symmetric coalgebra on the shifted space
``space.shifted(1)``, one ``graded.shift_table`` per bracket, held once per
structure as ``LInfinityStructure.codifferential``; ``jacobi_square`` also
composes Q o Q, and ``square_defects`` puts a square's words in report order.

Coderivations are stored by corestriction: component k is a symmetric
MultiTable S^k -> V, arity 0 included (the value on the empty word, an
arity-0 table under the key ()).  Composition and the Jacobi sweep are sums
over 2-block shuffles of one table inserted into another, each a
``graded.ShuffleInsertion`` sum from the stored entries of both tables.
``insertion_sums`` is the one loop over them: per arity, a combination of
insertions and tables in both gradings into one integer ``Accumulator`` per
side.  ``jacobi_square`` walks the Jacobi sweep with Q o Q in the kernel it
is given, each join once for both; ``compose_terms`` runs it on V[1] alone,
and ``compose`` in a kernel of its own: the extended square composes the
derivation bracket with it.  Both visit only the arities p + q - 1 at which
a stored outer table of arity p >= 1 meets an inner one of arity q: with
brackets of arity at most 3 that is at most 5, whatever arity is asked for.
The commutator and the sum of coderivations, which only the tests compare
against, live in the test oracle.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations_with_replacement

from .graded import Accumulator, ShuffleInsertion, shift_table
from .vectors import GradedBasis


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


class LInfinityStructure:
    """Graded space with skew brackets of degree 2-k, arity capped."""

    def __init__(self, space: GradedBasis, brackets: dict, arity_cap: int = 3):
        self.space = space
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

    @cached_property
    def codifferential(self) -> "Coderivation":
        """Q, the brackets transported by ``brackets_to_codifferential`` on first use."""
        return brackets_to_codifferential(self)


def insertion_sums(kernel: ShuffleInsertion, n: int, terms, linear=()) -> tuple:
    """The (side 0, side 1) ``Accumulator``s of arity n in the two-sided ``kernel``: over (c, F, G) terms and
    splittings (n-k+1, k), F_{n-k+1} with G_k inserted, times the factors c(k) = (side 0's, side 1's), plus
    c * D_n over (c, D) ``linear`` terms.  F, G and D are (side 0, side 1) pairs of {arity: table} dicts, the
    skew tables over V and their transports over V[1]; an empty dict or a factor 0 leaves a side idle."""
    accs = (Accumulator(), Accumulator())
    for c, (D0, D1) in linear:
        kernel.add_table(accs, (D0.get(n), D1.get(n)), c)
    for c, (F0, F1), (G0, G1) in terms:
        for k in range(n + 1):
            outer, inner = (F0.get(n - k + 1), F1.get(n - k + 1)), (G0.get(k), G1.get(k))
            if outer != (None, None) != inner:
                kernel.add(accs, outer, inner, c(k))
    return accs


def jacobi_square(kernel: ShuffleInsertion, L: LInfinityStructure, arities, max_arity: int, limit: int = 16) -> tuple:
    """(the Jacobi defects on the ``arities`` (a range or other container), up to ``limit`` of them as
    (n, tuple, defect) in tuple order, Q o Q up to max_arity), from one walk in ``kernel``: l_{n-i+1} o l_i
    with sign (-1)^i on V and Q_{n-i+1} o Q_i on V[1] share every join."""
    Q = L.codifferential
    both = ({k: t for k, t in L.brackets.items() if not t.is_zero()}, Q.components)
    failures, comps = [], {}
    for n in sorted({p + q - 1 for p in both[0] for q in both[0]}):
        on = (n in arities, n <= max_arity)
        if any(on):
            jacobi, square = insertion_sums(kernel, n, [(lambda k: ((-1) ** k * on[0], on[1]), both, both)])
            failures += [(n, key, defect) for _, key, defect in kernel.nonzero(jacobi, 0)]
            comps[n] = kernel.table(square, n, 2)
    return failures[:limit], Coderivation(Q.space, 2, comps)


class Coderivation:
    """Coderivation of the (reduced or full) symmetric coalgebra on a shifted basis.

    Determined by its corestriction: ``components[k]`` is the symmetric table
    S^k -> V.  An arity-0 component is the value on the empty word, stored
    under the key (); it makes this a coderivation of the full coalgebra.
    """

    def __init__(self, space: GradedBasis, degree: int, components: dict | None = None):
        self.space = space
        self.degree = degree
        self.components = {}
        for k, table in (components or {}).items():
            if table is None or table.is_zero():
                continue
            if table.space != space or not table.is_symmetric or table.arity != k:
                raise ValueError("component %d must be a symmetric table over the space" % k)
            if table.map_degree != degree:
                raise ValueError("component %d has degree %d, expected %d" % (k, table.map_degree, degree))
            self.components[k] = table

    def component(self, k: int):
        return self.components.get(k)

    def is_zero(self) -> bool:
        return not self.components

    def truncate(self) -> "Coderivation":
        """Forget the value on the empty word (pass to the reduced coalgebra)."""
        return Coderivation(self.space, self.degree, {k: t for k, t in self.components.items() if k})

    def items(self) -> list:
        """(arity, sorted key, value) of every entry of every component; the arity-0 value sits under ()."""
        return [(k, key, val) for k, t in self.components.items() for key, val in t.values.items()]

    def __eq__(self, other):
        return (
            isinstance(other, Coderivation)
            and self.space == other.space
            and self.degree == other.degree
            and self.components == other.components
        )

    def __repr__(self):
        return "Coderivation(degree=%d, arities=%s)" % (self.degree, sorted(self.components))


def compose(F: Coderivation, G: Coderivation, max_arity: int) -> Coderivation:
    """Corestriction components of F o G up to the given arity."""
    return compose_terms(ShuffleInsertion(F.space.shifted(-1)), [(1, F, G)], max_arity)


def compose_terms(kernel: ShuffleInsertion, terms, max_arity: int) -> Coderivation:
    """sum c * F o G over (c, F, G) terms, all of one space and degree, up to max_arity, on side 1 of the
    given kernel (side 0 idle).

    Component n collects, for each term and splitting (k, n-k+1) with both
    components present, the shuffle sum epsilon(s) F_{n-k+1}(G_k(chunk) (.) rest);
    k = 0 is the insertion of G's arity-0 value, and n = 0 is F_1 of it.
    A kernel shared by several calls reads each table once.
    """
    space = terms[0][1].space
    degree = terms[0][1].degree + terms[0][2].degree
    if any(F.space != space or G.space != space for _, F, G in terms):
        raise ValueError("mismatched coderivations")
    sided = [(lambda k, c=c: (0, c), ({}, F.components), ({}, G.components)) for c, F, G in terms]
    arities = {p + q - 1 for _, F, G in terms for p in F.components for q in G.components if p}
    return Coderivation(space, degree, {n: kernel.table(insertion_sums(kernel, n, sided)[1], n, degree)
                                        for n in sorted(arities) if n <= max_arity})


# --- brackets -> codifferential --------------------------------------------

def brackets_to_codifferential(L: LInfinityStructure) -> Coderivation:
    """Transport the brackets to the degree-1 codifferential on the shifted space."""
    comps = {}
    for k, table in L.brackets.items():
        if table.is_zero():
            continue
        comps[k] = shift_table(table)
    return Coderivation(L.space.shifted(1), 1, comps)


def square_defects(words, limit: int = 16) -> list:
    """The (arity, key, defect) words of a square in report order, cut at ``limit``:
    by arity, an arity-0 defect after all the others, then by key."""
    return sorted(words, key=lambda w: (w[0] == 0, w[0], w[1]))[:limit]
