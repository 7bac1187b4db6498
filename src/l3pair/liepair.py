"""The graded bracket structure on complement-valued forms of a Lie pair.

A pair (``lie.LiePair``) splits L = A (+) B, and splitting the bracket
through the two projections yields four structure maps:

* the flat A-action on B:        nabla_a b = pr_B [a, b]
* the B-operation on A:          eth_b a   = pr_A [b, a]
* the A-valued pairing on B:     beta(b1, b2)      = pr_A [b1, b2]
* the (non-Lie) product on B:    bracket_B(b1, b2) = pr_B [b1, b2]

On the space of B-valued alternating forms on A (graded by form degree),
these induce a differential, a binary bracket and a ternary bracket which
together satisfy the higher Jacobi rules up to arity cap 3.  ``L3Pair``
reads the four maps once off ``lie``, with the integral structure constants
as ints, and computes every table entry from its symbols.  A wedge word of A
letters is an int bitmask over A's index (letter i is bit 1 << i), and a
complement name is its rank: two words merge to zero when they share a bit,
else with the parity of a popcount of their inversions (``_sign``).  Each
entry is summed into a {symbol index: coeff} dict, and only a nonzero one
becomes an element, in ``graded.tabulate``.

The binary and ternary brackets are computed two independent ways, and
``route_defects`` compares them symbol by symbol, entry for entry:

* the closed route evaluates the shuffle formulas; ``structure()`` stores its
  values, once, as the tables every check and ``bracket2`` read, and the
  route check reads those stored tables.  A unit form (K, b) is nonzero only
  on the tuple of its own letters K, so each shuffle sum is a loop over the
  letters of one form: an A-vector in a form's first slot meets one letter a
  of K at a time, and the term lands on K without a merged with the other
  forms' words, with sign (-1)^pos(a) times the merge sign (``_contract``).
  The eth-terms of the binary bracket and the differential do the same;
* the derived route is Voronov's higher derived brackets of the
  Chevalley-Eilenberg field Q on L[1]: with the form (K, b) as the field
  xi^K d_b, Phi_n(x1, ..., xn) = P[...[[Q, x1], x2]..., xn], where P keeps
  the terms with no B letter that point along B.  It reads only L's bracket
  and the split, and reaches V through ``shift_transport_sign``.

Every ternary term contracts by beta, so l3 is built and compared on
``ternary_support()`` only, which L's bracket gives.  A wrong stored entry,
closed formula, beta entry or word sign fails the route check; the tests
keep the reduction through the generating Leibniz relations as a third route.
"""

from __future__ import annotations

from itertools import combinations, product

from .graded import shift_transport_sign, tabulate
from .linfty import LInfinityStructure, iter_normalized_tuples
from .vectors import GradedBasis, GradedElement


def _merge(w: int, u: int) -> int:
    """The sign of xi^w xi^u = +-xi^(w|u), each word the increasing product of its letters: 0 on a
    shared letter, else -1 to the number of pairs of a letter of w above a letter of u."""
    if w & u:
        return 0
    n = 0
    while w:  # w's lowest letter left passes the letters of u below it
        low = w & -w
        n, w = n + (u & low - 1).bit_count(), w ^ low
    return -1 if n & 1 else 1


def form_name(k_names, b_name=None) -> str:
    head = "^".join(k_names)
    if b_name is None:
        return head if head else "1"
    return head + "|" + b_name if head else b_name


class L3Pair:
    """The graded bracket structure on B-valued A-forms of a Lie pair.

    Basis symbols of the form space are pairs (increasing tuple of A-names,
    B-name); a symbol of form degree k has degree k.
    """

    def __init__(self, pair: LiePair):
        self.pair = pair
        a_names, b_names = pair.a_names, pair.b_names
        subsets = [K for k in range(len(a_names) + 1) for K in combinations(a_names, k)]
        # ids: an A-name is its letter's bit, a B-name its rank in b_names; a word is a sum of bits
        ids = self._id = {nm: 1 << i for i, nm in enumerate(a_names)}
        ids.update((nm, j) for j, nm in enumerate(b_names))
        self._slot = [0] * (1 << len(a_names))  # word -> index of its first symbol
        for pos, K in enumerate(subsets):
            self._slot[sum(ids[a] for a in K)] = pos * len(b_names)
        self.decode = {form_name(K, b): (K, b) for K in subsets for b in b_names}
        self.basis = GradedBasis((nm, len(K)) for nm, (K, _) in self.decode.items())
        self._code = {nm: (sum(ids[a] for a in K), ids[b]) for nm, (K, b) in self.decode.items()}  # name -> (word, B rank)
        # per word: its letters in increasing order, and the letters below an odd number of its own
        self._letters, self._above = [()], [0]
        for word in range(1, 1 << len(a_names)):
            top = 1 << word.bit_length() - 1
            self._letters.append(self._letters[word ^ top] + (top,))
            self._above.append(self._above[word ^ top] ^ top - 1)
        # the four splitting maps, read off the bracket of L on ids
        a_set, lie = set(a_names), pair.algebra.lie

        def split(lefts, rights, onto_a: bool) -> dict:
            parts = {(u, v): {ids[nm]: c for nm, c in lie.get((u, v), {}).items() if (nm in a_set) == onto_a}
                     for u in lefts for v in rights}
            return {(ids[u], ids[v]): part for (u, v), part in parts.items() if part}

        self.nabla = split(a_names, b_names, False)  # nabla_a b = pr_B [a, b]
        self.eth = split(b_names, a_names, True)  # eth_b a = pr_A [b, a]
        self.beta = split(b_names, b_names, True)  # pr_A [b1, b2]
        self.bracket_b = split(b_names, b_names, False)  # pr_B [b1, b2]
        self._lie_a = [(ids[x] | ids[y], {ids[nm]: c for nm, c in lie[(x, y)].items()})
                       for x, y in combinations(a_names, 2) if (x, y) in lie]  # [x, y] on A, x before y
        self._structure = None
        self._ternary = None

    # -- elements and wedge words ------------------------------------------

    def zero(self) -> GradedElement:
        return self.basis.zero()

    def _sign(self, w1: int, w2: int, w3: int = 0) -> int:
        """The sign that sorts the wedge word of the letters of w1, then w2, then w3, each word in
        increasing order: 0 if two share a letter, else -1 to the number of inversions (a letter
        before a lower one); the parity of w1's inversions with w2 is a popcount of ``_above``."""
        if w1 & w2 or (w1 | w2) & w3:
            return 0
        above = self._above
        return -1 if ((above[w1] & w2) ^ (above[w1 | w2] & w3)).bit_count() & 1 else 1

    # -- tables from symbols ---------------------------------------------------
    #
    # A unit form (K, b) is b times the sort sign on an A-tuple whose letters
    # are K, and zero on any other tuple.  So in every shuffle sum only the
    # shuffles that hand each form its own letters survive, and an A-vector
    # in slot 0 of (K, b) meets one letter of K at a time.  Each builder sums
    # into {symbol index: coeff}, the index of (K, b) being _slot[K] + b.

    def _place(self, acc: dict, bvec: dict, K: int, factor=1) -> None:
        """acc += factor times the B-vector ``bvec`` {B rank: coeff} on the unit forms (K, b)."""
        first = self._slot[K]
        for b, c in bvec.items():
            acc[first + b] = acc.get(first + b, 0) + factor * c

    def _contract(self, acc: dict, vec: dict, K: int, b: int, factor=1, before: int = 0, after: int = 0) -> None:
        """acc += factor times the A-vector ``vec`` in slot 0 of the unit form (K, b), the other letters
        of K merged between the words ``before`` and ``after``: one term per letter a of K with
        vec[a] != 0, of sign (-1)^pos(a) times the sort sign of the merged word, zero on a repeat."""
        for pos, a in enumerate(self._letters[K]):
            c = vec.get(a)
            if c:
                rest = K ^ a
                s = self._sign(before, rest, after)
                if s:
                    i = self._slot[before | rest | after] + b
                    acc[i] = acc.get(i, 0) + factor * (c if s == (-1 if pos & 1 else 1) else -c)

    def _d_syms(self, sym: str) -> dict:
        # (d X)(J) = sum_i (-1)^i nabla_{J_i} X(J without J_i)
        #          + sum_{i<j} (-1)^(i+j) X([J_i, J_j], J without J_i, J_j)
        K, b = self._code[sym]
        acc = {}
        for g in self._letters[-1]:
            s = self._sign(g, K)
            if s and (g, b) in self.nabla:
                self._place(acc, self.nabla[(g, b)], g | K, s)
        for g12, vec in self._lie_a:
            self._contract(acc, vec, K, b, -1, g12)
        return acc

    # -- binary and ternary brackets: closed shuffle formulas ---------------

    def bracket2(self, x: GradedElement, y: GradedElement) -> GradedElement:
        """Binary bracket, evaluated on the stored l2 table."""
        table = self.structure().bracket(2)
        return table.evaluate([x, y]) if table is not None else self.zero()

    def _bracket2_syms(self, sx: str, sy: str) -> dict:
        # [X, Y](J) = sum_shuffles sgn (X(eth_{Y(.)} ., ..) - Y(eth_{X(.)} ., ..) + pr_B[X(.), Y(.)])
        (KX, bX), (KY, bY) = self._code[sx], self._code[sy]
        acc, eth = {}, self.eth
        for g in self._letters[-1]:
            if (bY, g) in eth:
                self._contract(acc, eth[(bY, g)], KX, bX, 1, g, KY)
            if (bX, g) in eth:
                s = self._sign(KX, g)
                if s:
                    self._contract(acc, eth[(bX, g)], KY, bY, -s, KX | g)
        s = self._sign(KX, KY)
        if s and (bX, bY) in self.bracket_b:
            self._place(acc, self.bracket_b[(bX, bY)], KX | KY, s)
        return acc

    def _bracket3_syms(self, sx: str, sy: str, sz: str) -> dict:
        # three sums over shuffles, one per slot that receives the beta of the other two
        (KX, bX), (KY, bY), (KZ, bZ) = self._code[sx], self._code[sy], self._code[sz]
        acc, beta = {}, self.beta
        s = self._sign(KX, KY)
        if s and (bX, bY) in beta:
            self._contract(acc, beta[(bX, bY)], KZ, bZ, -s if (KX | KY).bit_count() % 2 == 0 else s, KX | KY)
        if (bX, bZ) in beta:
            self._contract(acc, beta[(bX, bZ)], KY, bY, -1 if KX.bit_count() % 2 else 1, KX, KZ)
        s = self._sign(KY, KZ)
        if s and (bY, bZ) in beta:
            self._contract(acc, beta[(bY, bZ)], KX, bX, -s, 0, KY | KZ)
        return acc

    # -- the same brackets as Voronov's derived brackets -----------------------
    # One odd coordinate xi^i per letter of L, A's first: a word is a bitmask over all of them (B's rank b at
    # bit len(A) + b), and a field {(word, letter k): c} is the sum of c xi^word d_k.

    def _q_field(self) -> dict:
        """The Chevalley-Eilenberg field Q, Q(xi^k) = sum_{i<j} c_ij^k xi^i xi^j, from L's bracket alone."""
        letters = list(enumerate(self.pair.a_names + self.pair.b_names))
        index, lie = {nm: i for i, nm in letters}, self.pair.algebra.lie
        return {(1 << i | 1 << j, index[nm]): c
                for (i, x), (j, y) in combinations(letters, 2) for nm, c in lie.get((x, y), {}).items()}

    def _field_bracket(self, X: dict, sym: str) -> dict:
        """[X, x] = X x - (-1)^(|X||x|) x X for a field X and the unit form ``sym`` as the field x, where
        xi^w d_k has degree |w| - 1 and d_k is a left derivation, passing the letters below k: one loop
        over X's terms xi^w d_k, since the second-order parts cancel."""
        K, b = self._code[sym]
        b += len(self.pair.a_names)  # b's letter
        out = {}
        for (w, k), c in X.items():
            if K >> k & 1:  # X x: xi^w d_k(xi^K) d_b
                rest = K ^ 1 << k
                s = _merge(w, rest) * (-1 if (K & (1 << k) - 1).bit_count() & 1 else 1)
                if s:
                    out[w | rest, b] = out.get((w | rest, b), 0) + s * c
            if w >> b & 1:  # x X: xi^K d_b(xi^w) d_k, times -(-1)^(|X||x|)
                rest = w ^ 1 << b
                s = _merge(K, rest) * (-1 if (w & (1 << b) - 1).bit_count() & 1 else 1)
                if s:
                    s = s if (w.bit_count() - 1) * (K.bit_count() - 1) % 2 else -s
                    out[K | rest, k] = out.get((K | rest, k), 0) + s * c
        return {t: c for t, c in out.items() if c}

    def _derived(self, field: dict):
        """key -> P[...[[field, x1], x2]..., xn] on the unit forms of the key as {symbol index: coeff}, P keeping the
        terms with no B letter that point along B; each proper prefix's bracket is kept in the closure only."""
        a_len, prefixes = len(self.pair.a_names), {(): field}

        def derived(key: tuple) -> dict:
            for i in range(1, len(key)):
                if key[:i] not in prefixes:
                    prefixes[key[:i]] = self._field_bracket(prefixes[key[:i - 1]], key[i - 1])
            value = self._field_bracket(prefixes[key[:-1]], key[-1]) if key else field
            return {self._slot[w] + k - a_len: c for (w, k), c in value.items() if k >= a_len and not w >> a_len}

        return derived

    # -- assembly ------------------------------------------------------------

    def ternary_support(self) -> list:
        """The normalized triples, in ``iter_normalized_tuples`` order, with two complement legs
        whose bracket in L has an A part: off them every term of either route contracts by a zero
        beta.  Read from L's bracket, not from the closed route's ``beta``, so that a wrong beta
        cannot narrow what the derived route is asked.  Walked once per pair, on first use."""
        if self._ternary is None:
            names, odd = self.basis.names, [self.basis.parity(nm) for nm in self.basis.names]
            b_names, a_set, lie = self.pair.b_names, set(self.pair.a_names), self.pair.algebra.lie
            step = len(b_names)  # the symbols with complement leg b are b, b + step, ...
            out = set()
            for b1, b2 in combinations(range(step), 2):
                if not a_set.intersection(lie.get((b_names[b1], b_names[b2]), ())):
                    continue
                for i, j in product(range(b1, len(names), step), range(b2, len(names), step)):
                    i, j = min(i, j), max(i, j)
                    for k in range(len(names)):
                        t = (k, i, j) if k < i else (i, k, j) if k < j else (i, j, k)
                        if (t[0] != t[1] or odd[t[0]]) and (t[1] != t[2] or odd[t[1]]):
                            out.add(t)
            self._ternary = tuple((names[i], names[j], names[k]) for i, j, k in sorted(out))
        return list(self._ternary)

    def route_defects(self) -> tuple:
        """(records, pairs, triples): the stored l2 and l3 entries of ``structure()`` (an absent one
        counts as zero) against the derived brackets on every normalized pair and on
        ``ternary_support()``, one record (defect stored - derived) per mismatch."""
        brackets = self.structure().brackets
        pairs = list(iter_normalized_tuples(self.basis, 2, symmetric=False))
        triples = self.ternary_support()
        names, degree, derived = self.basis.names, self.basis.degree, self._derived(self._q_field())
        records = []
        for identity, arity, keys in (("binary-routes", 2, pairs), ("ternary-routes", 3, triples)):
            stored = brackets[arity].values if arity in brackets else {}
            for key in keys:
                phi = derived(key)
                s = shift_transport_sign(arity, [degree(nm) for nm in key]) if phi else 1
                got = {names[i]: s * c for i, c in phi.items()}
                val = stored.get(key)
                if (val.coords if val is not None else {}) != got:
                    val = self.zero() if val is None else val
                    records.append({"identity": identity, "inputs": list(key), "defect": val - GradedElement(self.basis, got)})
        return records, len(pairs), len(triples)

    def structure(self) -> LInfinityStructure:
        """The full bracket structure from the closed formulas, l3 only on ``ternary_support()``;
        built once, and holding only the nonzero tables."""
        if self._structure is None:
            tables = (
                (1, tabulate(self.basis, 1, 1, ((nm,) for nm in self.basis.names), self._d_syms)),
                (2, tabulate(self.basis, 2, 0, iter_normalized_tuples(self.basis, 2, symmetric=False), self._bracket2_syms)),
                (3, tabulate(self.basis, 3, -1, self.ternary_support(), self._bracket3_syms)),
            )
            self._structure = LInfinityStructure(self.basis, {k: t for k, t in tables if not t.is_zero()}, arity_cap=3)
        return self._structure
