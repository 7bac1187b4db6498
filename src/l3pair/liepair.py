"""Lie pairs and the graded bracket structure on complement-valued forms.

A pair is a finite-dimensional Lie algebra L (structure constants on a named
basis) with a subalgebra A and the complementary basis B, so L = A (+) B.
``LieAlgebra.lie`` is the one stored form of those constants, a dict
{(x, y): {z: c}} on ordered name pairs: the Jacobi check, the subalgebra
check, the derivation equations and every bracket below read it.
Splitting the bracket through the two projections yields four structure maps:

* the flat A-action on B:        nabla_a b = pr_B [a, b]
* the B-operation on A:          eth_b a   = pr_A [b, a]
* the A-valued pairing on B:     beta(b1, b2)      = pr_A [b1, b2]
* the (non-Lie) product on B:    bracket_B(b1, b2) = pr_B [b1, b2]

On the space of B-valued alternating forms on A (graded by form degree),
these induce a differential, a binary bracket and a ternary bracket which
together satisfy the higher Jacobi rules up to arity cap 3.  ``L3Pair``
reads the four maps once off ``lie``, as dicts on basis names with the
integral structure constants as ints, and computes every table entry from
its symbols; on a pair with integral constants every entry is summed in ints.

The binary and ternary brackets are computed two independent ways, and
``route_defects`` compares them symbol by symbol, entry for entry:

* the closed route evaluates the shuffle formulas; ``structure()`` stores its
  values, once, as the tables every check and ``bracket2`` read, and the
  route check reads those stored tables.  A unit form (K, b) is
  nonzero only on the tuple of its own letters K, so each shuffle sum is a
  loop over the letters of one form: an A-vector in a form's first slot
  meets one letter a of K at a time, and the term lands on K without a
  merged with the other forms' letters, with sign (-1)^pos(a) times the sort
  sign of the merged word (``_insert``).  The eth-terms of the binary
  bracket substitute one letter the same way, and so does the differential;
* the generated route reduces through the generating Leibniz relations
  (strip a wedge factor, swap, rotate), with the anchors, wedge, interior
  product and module product computed on (K, b) keys with sort signs.

The two routes share only the splitting dicts, the sort sign and the
conversion of (K, b) keys to an element (``_element``).  Every ternary term
contracts by beta, so l3 is built and compared on ``ternary_support()`` only.
A corrupted stored entry therefore fails the route check, as a wrong closed
formula does.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations, product

from .graded import GradedBasis, GradedElement, multilinear, tabulate
from .linfty import LInfinityStructure, iter_normalized_tuples
from .scalars import format_rational, parse_rational

try:  # CPython's built-in SHA-256: hashlib would load OpenSSL for one digest per report
    from _sha256 import sha256  # 3.10, 3.11
except ImportError:
    try:
        from _sha2 import sha256  # 3.12+
    except ImportError:
        from hashlib import sha256

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
    """Finite-dimensional Lie algebra given by structure constants.

    ``lie`` holds them once, as {(x, y): {z: c}} on ordered pairs of basis
    names in both orders: integral constants are ints, other rationals
    Fractions, and zero coefficients and zero brackets are dropped.
    """

    def __init__(self, names, brackets, validate: bool = True):
        for nm in names:
            _check_name(nm)
        self.basis = basis = GradedBasis([(nm, 0) for nm in names])
        self.lie = {}
        for (left, right), out in brackets.items():
            if left not in basis or right not in basis:
                raise ValueError("unknown symbol in bracket (%r, %r)" % (left, right))
            if basis.index(left) >= basis.index(right):
                raise ValueError("brackets must be keyed with left < right in basis order")
            coords = {}
            for nm, c in out.items():
                c = Fraction(c)
                if c:
                    if nm not in basis:
                        raise ValueError("symbol %r not in basis" % (nm,))
                    coords[nm] = c.numerator if c.denominator == 1 else c
            if coords:
                self.lie[(left, right)] = coords
                self.lie[(right, left)] = {nm: -c for nm, c in coords.items()}
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
        if u.space != self.basis or v.space != self.basis:
            raise ValueError("argument lives in the wrong space")
        return multilinear(self.basis, lambda syms: self.bracket_names(*syms), [u, v])

    def bracket_names(self, a: str, b: str) -> GradedElement:
        return GradedElement(self.basis, self.lie.get((a, b), {}))

    def unit(self, name: str) -> GradedElement:
        return self.basis.unit(name)

    def to_json(self) -> dict:
        index = self.basis.index
        entries = []
        for (left, right), out in sorted(self.lie.items(), key=lambda kv: (index(kv[0][0]), index(kv[0][1]))):
            if index(left) < index(right):
                out = {nm: format_rational(c) for nm, c in sorted(out.items(), key=lambda kv: index(kv[0]))}
                entries.append({"left": left, "right": right, "out": out})
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


def validate_lie(alg: LieAlgebra):
    """Triples of basis names, in basis order, where the Jacobi identity fails:
    [[x, y], z] + [[y, z], x] + [[z, x], y], summed on the constants."""
    lie, bad = alg.lie, []
    for x, y, z in combinations(alg.names, 3):
        jac = {}
        for u, v, w in ((x, y, z), (y, z, x), (z, x, y)):
            for m, c in lie.get((u, v), {}).items():
                for n, d in lie.get((m, w), {}).items():
                    jac[n] = jac.get(n, 0) + c * d
        if any(jac.values()):
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
        a_set = set(self.a_names)
        for x, y in combinations(self.a_names, 2):
            if any(nm not in a_set for nm in algebra.lie.get((x, y), {})):
                raise ValueError("A is not a subalgebra: [%s, %s] leaves it" % (x, y))

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
        return sha256(payload.encode()).hexdigest()[:16]


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
        self.encode = {key: nm for nm, key in self.decode.items()}
        self.basis = GradedBasis(symbols)
        scalar_symbols = []
        self.scalar_decode = {}
        for K in self.subsets:
            nm = form_name(K)
            scalar_symbols.append((nm, len(K)))
            self.scalar_decode[nm] = K
        self.scalar_basis = GradedBasis(scalar_symbols)
        # the bracket of L as the algebra holds it, and the four splitting maps read off it
        a_set = set(a_names)
        self._a_rank = {nm: i for i, nm in enumerate(a_names)}
        self.lie = pair.algebra.lie

        def split(lefts, rights, onto_a: bool) -> dict:
            out = {}
            for u in lefts:
                for v in rights:
                    part = {nm: c for nm, c in self.lie.get((u, v), {}).items() if (nm in a_set) == onto_a}
                    if part:
                        out[(u, v)] = part
            return out

        self.nabla = split(a_names, pair.b_names, False)  # nabla_a b = pr_B [a, b]
        self.eth = split(pair.b_names, a_names, True)  # eth_b a = pr_A [b, a]
        self.beta = split(pair.b_names, pair.b_names, True)  # pr_A [b1, b2]
        self.bracket_b = split(pair.b_names, pair.b_names, False)  # pr_B [b1, b2]
        self._structure = None
        self._ternary = None
        self._b2_gen_cache = {}
        self._b3_gen_cache = {}

    # -- elements ---------------------------------------------------------

    def zero(self) -> GradedElement:
        return self.basis.zero()

    def _sort_wedge(self, names):
        """(sign, increasing tuple) of a wedge word (tuple or list) of A names; (0, None) if a
        name repeats.  A names have degree 0, so the sign is that of the word's inversions."""
        rank = self._a_rank
        keys = [rank[nm] for nm in names]
        inversions = 0
        for i, k in enumerate(keys):
            for later in keys[i + 1:]:
                if later <= k:
                    if later == k:
                        return 0, None
                    inversions += 1
        if not inversions:
            return 1, tuple(names)
        return (-1 if inversions & 1 else 1), tuple(sorted(names, key=rank.__getitem__))

    # -- tables from symbols ---------------------------------------------------
    #
    # A unit form (K, b) is b times the sort sign on an A-tuple whose letters
    # are K, and zero on any other tuple.  So in every shuffle sum only the
    # shuffles that hand each form its own letters survive, and an A-vector
    # in slot 0 of (K, b) meets one letter of K at a time.

    def _insert(self, vec: dict, K: tuple, b: str, before=(), after=()) -> dict:
        """{(word, b): coeff} of the A-vector ``vec`` in slot 0 of the unit form (K, b),
        the other letters of K merged between ``before`` and ``after``: one term per
        letter a of K with vec[a] != 0, of sign (-1)^pos(a) times the sort sign of
        the merged word; a word with a repeated letter is zero."""
        out = {}
        for pos, a in enumerate(K):
            c = vec.get(a)
            if c:
                s, word = self._sort_wedge(before + K[:pos] + K[pos + 1:] + after)
                if s:
                    key = (word, b)
                    out[key] = out.get(key, 0) + (c if s == (-1 if pos % 2 else 1) else -c)
        return out

    def _element(self, *terms) -> GradedElement:
        """The form sum of factor * {(K, b): coeff} over (factor, keys) terms."""
        coords = {}
        for factor, keys in terms:
            for key, c in keys.items():
                nm = self.encode[key]
                coords[nm] = coords.get(nm, 0) + factor * c
        return GradedElement(self.basis, coords)

    def _d_syms(self, sym: str) -> GradedElement:
        # (d X)(J) = sum_i (-1)^i nabla_{J_i} X(J without J_i)
        #          + sum_{i<j} (-1)^(i+j) X([J_i, J_j], J without J_i, J_j)
        K, b = self.decode[sym]
        terms = []
        for g in self.pair.a_names:
            s, word = self._sort_wedge((g,) + K)
            if s:
                terms.append((s, {(word, b2): c for b2, c in self.nabla.get((g, b), {}).items()}))
        for g1, g2 in combinations(self.pair.a_names, 2):
            terms.append((-1, self._insert(self.lie.get((g1, g2), {}), K, b, (g1, g2))))
        return self._element(*terms)

    # -- binary and ternary brackets: closed shuffle formulas ---------------

    def bracket2(self, x: GradedElement, y: GradedElement) -> GradedElement:
        """Binary bracket, evaluated on the stored l2 table."""
        table = self.structure().bracket(2)
        return table.evaluate([x, y]) if table is not None else self.zero()

    def _bracket2_syms(self, sx: str, sy: str) -> GradedElement:
        # [X, Y](J) = sum_shuffles sgn (X(eth_{Y(.)} ., ..) - Y(eth_{X(.)} ., ..) + pr_B[X(.), Y(.)])
        KX, bX = self.decode[sx]
        KY, bY = self.decode[sy]
        terms = []
        for g in self.pair.a_names:
            terms.append((1, self._insert(self.eth.get((bY, g), {}), KX, bX, (g,), KY)))
            terms.append((-1, self._insert(self.eth.get((bX, g), {}), KY, bY, KX + (g,))))
        s, word = self._sort_wedge(KX + KY)
        if s:
            terms.append((s, {(word, b): c for b, c in self.bracket_b.get((bX, bY), {}).items()}))
        return self._element(*terms)

    def _bracket3_syms(self, sx: str, sy: str, sz: str) -> GradedElement:
        # three sums over shuffles, one per slot that receives the beta of the other two
        KX, bX = self.decode[sx]
        KY, bY = self.decode[sy]
        KZ, bZ = self.decode[sz]
        p, q = len(KX), len(KY)
        beta = self.beta
        return self._element(
            (-1 if (p + q + 1) % 2 else 1, self._insert(beta.get((bX, bY), {}), KZ, bZ, KX + KY)),
            (-1 if p % 2 else 1, self._insert(beta.get((bX, bZ), {}), KY, bY, KX, KZ)),
            (-1, self._insert(beta.get((bY, bZ), {}), KX, bX, (), KY + KZ)),
        )

    # -- the same brackets through the generating relations ------------------
    #
    # Scalar forms are {K: coeff} and B-valued forms {(K, b): coeff} here;
    # every step is a product or contraction of keys with a sort sign.

    def _wedge_keys(self, w1: dict, w2: dict) -> dict:
        out = {}
        for K1, c1 in w1.items():
            for K2, c2 in w2.items():
                s, K = self._sort_wedge(K1 + K2)
                if s:
                    out[K] = out.get(K, 0) + s * c1 * c2
        return out

    def _module_keys(self, omega: dict, x: dict) -> dict:
        """Left module action of scalar forms on B-valued forms."""
        out = {}
        for K1, c1 in omega.items():
            for (K2, b), c2 in x.items():
                s, K = self._sort_wedge(K1 + K2)
                if s:
                    out[(K, b)] = out.get((K, b), 0) + s * c1 * c2
        return out

    def _interior_keys(self, vec: dict, omega: dict) -> dict:
        """Left-slot contraction of a scalar form by an A-vector."""
        out = {}
        for K, c in omega.items():
            for pos, a in enumerate(K):
                ca = vec.get(a)
                if ca:
                    rest = K[:pos] + K[pos + 1:]
                    out[rest] = out.get(rest, 0) + (-ca if pos % 2 else ca) * c
        return out

    def _eth_scalar_keys(self, b: str, omega: dict) -> dict:
        """Degree-0 derivation of the wedge algebra dual to eth_b on A:
        <eth_b u, a> = -<u, eth_b a> on a generator, extended by the Leibniz rule."""
        out = {}
        for K, c in omega.items():
            for slot, gen in enumerate(K):
                for a_nm in self.pair.a_names:
                    coeff = self.eth.get((b, a_nm), {}).get(gen)
                    if coeff:
                        s, merged = self._sort_wedge(K[:slot] + (a_nm,) + K[slot + 1:])
                        if s:
                            out[merged] = out.get(merged, 0) - s * coeff * c
        return out

    def _anchor1_keys(self, K: tuple, b: str, omega: dict) -> dict:
        """rho_1(lambda (x) b) omega = lambda . (eth_b omega)."""
        return self._wedge_keys({K: 1}, self._eth_scalar_keys(b, omega))

    def _anchor2_keys(self, K1: tuple, b1: str, K2: tuple, b2: str, omega: dict) -> dict:
        """rho_2(l (x) b, l' (x) b') omega = (-1)^(|l|+|l'|+1) (l ^ l') . (beta(b,b') -| omega)."""
        beta = self.beta.get((b1, b2))
        if not beta:
            return {}
        sgn = -1 if (len(K1) + len(K2) + 1) % 2 else 1
        lam = self._wedge_keys({K1: 1}, {K2: 1})
        return {K: sgn * c for K, c in self._wedge_keys(lam, self._interior_keys(beta, omega)).items()}

    def _keys_of(self, x: GradedElement) -> dict:
        return {self.decode[nm]: c for nm, c in x.coords.items()}

    def _b2_gen(self, sx: str, sy: str) -> GradedElement:
        key = (sx, sy)
        if key in self._b2_gen_cache:
            return self._b2_gen_cache[key]
        KX, bX = self.decode[sx]
        KY, bY = self.decode[sy]
        p, q = len(KX), len(KY)
        if q > 0:
            # strip the wedge factor off the second slot
            omega = {KY: 1}
            term1 = self._module_keys(self._anchor1_keys(KX, bX, omega), {((), bY): 1})
            rec = self._keys_of(self._b2_gen(sx, self.encode[((), bY)]))
            sgn = -1 if (q * p) % 2 else 1
            result = self._element((1, term1), (sgn, self._module_keys(omega, rec)))
        elif p > 0:
            # graded swap, then strip; the second slot now has degree 0
            result = -self._b2_gen(sy, sx)
        else:
            result = self._element((1, {((), b): c for b, c in self.bracket_b.get((bX, bY), {}).items()}))
        self._b2_gen_cache[key] = result
        return result

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
            omega = {KZ: 1}
            term1 = self._module_keys(self._anchor2_keys(KX, bX, KY, bY, omega), {((), bZ): 1})
            rec = self._keys_of(self._b3_gen(sx, sy, self.encode[((), bZ)]))
            sgn = -1 if (r * (p + q + 1)) % 2 else 1
            result = self._element((1, term1), (sgn, self._module_keys(omega, rec)))
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

    def ternary_support(self) -> list:
        """The normalized triples, in ``iter_normalized_tuples`` order, with beta != 0 on two of
        their complement legs: off them every term of either route contracts by a zero beta.
        Walked once per pair, on first use."""
        if self._ternary is None:
            names, odd = self.basis.names, [self.basis.parity(nm) for nm in self.basis.names]
            legs = {b: [i for i, nm in enumerate(names) if self.decode[nm][1] == b] for b in self.pair.b_names}
            out = set()
            for b1, b2 in self.beta:
                if b1 > b2:  # beta is skew: its support holds (b2, b1) too, with the same triples
                    continue
                for i, j, k in product(legs[b1], legs[b2], range(len(names))):
                    t = sorted((i, j, k))
                    if (t[0] != t[1] or odd[t[0]]) and (t[1] != t[2] or odd[t[1]]):
                        out.add(tuple(t))
            self._ternary = tuple(tuple(names[i] for i in t) for t in sorted(out))
        return list(self._ternary)

    def route_defects(self) -> tuple:
        """(records, pairs, triples): the stored l2 and l3 entries of ``structure()`` (an absent one
        counts as zero) against the generated route on every normalized pair and on
        ``ternary_support()``, one record (defect stored - generated) per mismatch."""
        brackets = self.structure().brackets
        pairs = list(iter_normalized_tuples(self.basis, 2, symmetric=False))
        triples = self.ternary_support()
        zero = self.zero()
        records = []
        for identity, arity, keys, generated in (
            ("binary-routes", 2, pairs, self._b2_gen),
            ("ternary-routes", 3, triples, self._b3_gen),
        ):
            stored = brackets[arity].values if arity in brackets else {}
            for key in keys:
                a, b = stored.get(key, zero), generated(*key)
                if a != b:
                    records.append({"identity": identity, "inputs": list(key), "defect": a - b})
        self._b2_gen_cache, self._b3_gen_cache = {}, {}  # the generated route is read only here
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


def build_l3(pair: LiePair) -> L3Pair:
    """Assemble the differential and both higher brackets for a validated pair."""
    return L3Pair(pair)
