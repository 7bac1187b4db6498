"""Graded vector spaces with named bases, sparse elements, and multilinear tables.

Every operation on elements is multilinear and fixed by its values on basis
symbols; ``multilinear`` is the one extension from symbol tuples to sparse
elements, and every element-level bracket, action and table evaluation in
the package goes through it.  ``linear_combination`` is the one sparse sum
of tables, entry by entry.

Element coordinates are exact rationals (or ``TruncatedPoly`` at the gauge
path's boundary).  The shuffle-insertion kernel computes on ints wherever a
coefficient is integral and hands Fractions back at its boundary.

A ``MultiTable`` stores a graded skew- or graded-symmetric multilinear map by
its values on normalized basis tuples (sorted by basis order, Koszul sign
folded in).  Evaluation on arbitrary tuples re-normalizes with the chi (skew)
or epsilon (symmetric) sign, so table equality is plain mapping equality.

Degrees are kept unshifted everywhere; a ``ShiftedBasis`` merely re-reads the
degree of each symbol on demand.  That single source of truth for |x| is what
keeps the degree-shift bookkeeping honest.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb

from .scalars import format_scalar, scalar_is_zero
from .signs import shift_transport_sign


class GradedBasis:
    """Ordered finite basis of a graded vector space: (name, degree) pairs."""

    def __init__(self, symbols):
        symbols = tuple((str(n), int(d)) for n, d in symbols)
        names = [n for n, _ in symbols]
        if len(set(names)) != len(names):
            raise ValueError("duplicate basis names")
        self.symbols = symbols
        self.names = tuple(names)
        self._index = {n: i for i, n in enumerate(names)}
        self._degree = {n: d for n, d in symbols}

    def index(self, name: str) -> int:
        return self._index[name]

    def degree(self, name: str) -> int:
        return self._degree[name]

    def parity(self, name: str) -> int:
        return self._degree[name] & 1

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __len__(self) -> int:
        return len(self.symbols)

    def __eq__(self, other):
        return isinstance(other, GradedBasis) and self.symbols == other.symbols

    def __hash__(self):
        return hash(self.symbols)

    def __repr__(self):
        return "GradedBasis(%r)" % (self.symbols,)

    def shifted(self, shift: int = 1) -> "ShiftedBasis":
        return ShiftedBasis(self, shift)

    def zero(self) -> "GradedElement":
        return GradedElement(self, {})

    def unit(self, name: str) -> "GradedElement":
        if name not in self._index:
            raise ValueError("unknown basis symbol %r" % (name,))
        return GradedElement(self, {name: Fraction(1)})


class ShiftedBasis:
    """View of a basis with all degrees lowered by ``shift``."""

    def __init__(self, underlying: GradedBasis, shift: int = 1):
        if isinstance(underlying, ShiftedBasis):
            shift = shift + underlying.shift
            underlying = underlying.underlying
        self.underlying = underlying
        self.shift = shift
        self.names = underlying.names
        self.symbols = tuple((n, d - shift) for n, d in underlying.symbols)
        self._degree = {n: d for n, d in self.symbols}

    def index(self, name: str) -> int:
        return self.underlying.index(name)

    def degree(self, name: str) -> int:
        return self._degree[name]

    def parity(self, name: str) -> int:
        return self._degree[name] & 1

    def __contains__(self, name: str) -> bool:
        return name in self.underlying

    def __len__(self) -> int:
        return len(self.names)

    def __eq__(self, other):
        return (
            isinstance(other, ShiftedBasis)
            and self.underlying == other.underlying
            and self.shift == other.shift
        )

    def __hash__(self):
        return hash((self.underlying, self.shift))

    def __repr__(self):
        return "ShiftedBasis(%r, %d)" % (self.underlying, self.shift)

    def zero(self) -> "GradedElement":
        return GradedElement(self, {})

    def unit(self, name: str) -> "GradedElement":
        return GradedElement(self, {name: Fraction(1)})


class GradedElement:
    """Finitely supported coordinate vector over a (possibly shifted) basis.

    Coordinates are Fractions or TruncatedPolys; zeros are scrubbed so that
    equality of elements is equality of coordinate mappings.
    """

    __slots__ = ("space", "coords")

    def __init__(self, space, coords):
        self.space = space
        self.coords = {n: c for n, c in coords.items() if not scalar_is_zero(c)}
        for n in self.coords:
            if n not in space:
                raise ValueError("symbol %r not in basis" % (n,))

    def is_zero(self) -> bool:
        return not self.coords

    def degree(self):
        """Common degree of the supported symbols; None for the zero element."""
        degs = {self.space.degree(n) for n in self.coords}
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError("element is not homogeneous: degrees %s" % sorted(degs))
        return degs.pop()

    def _require_same_space(self, other):
        if self.space != other.space:
            raise ValueError("elements live in different spaces")

    def __add__(self, other):
        self._require_same_space(other)
        out = dict(self.coords)
        for n, c in other.coords.items():
            out[n] = out.get(n, 0) + c
        return GradedElement(self.space, out)

    def __sub__(self, other):
        self._require_same_space(other)
        out = dict(self.coords)
        for n, c in other.coords.items():
            out[n] = out.get(n, 0) - c
        return GradedElement(self.space, out)

    def __neg__(self):
        return GradedElement(self.space, {n: -c for n, c in self.coords.items()})

    def scale(self, c) -> "GradedElement":
        if scalar_is_zero(c):
            return GradedElement(self.space, {})
        return GradedElement(self.space, {n: c * v for n, v in self.coords.items()})

    def __eq__(self, other):
        return (
            isinstance(other, GradedElement)
            and self.space == other.space
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((self.space, tuple(sorted(self.coords))))

    def __repr__(self):
        if not self.coords:
            return "0"
        parts = []
        for n in sorted(self.coords, key=self.space.index):
            parts.append("%r*%s" % (self.coords[n], n))
        return " + ".join(parts)

    def to_json(self) -> dict:
        return {
            n: format_scalar(self.coords[n])
            for n in sorted(self.coords, key=self.space.index)
        }


def normalize_tuple(space, names, symmetric: bool):
    """Sort a basis tuple into normal form, returning (sign, key).

    Returns (0, None) when the corresponding word vanishes: a repeated
    even-degree symbol in a wedge, or a repeated odd-degree symbol in a
    symmetric word.
    """
    arr = list(names)
    n = len(arr)
    idx = space.index
    par = space.parity
    keys = [idx(nm) for nm in arr]
    pars = [par(nm) for nm in arr]
    exp = 0
    for i in range(1, n):
        j = i
        while j > 0 and keys[j - 1] > keys[j]:
            if symmetric:
                exp += pars[j - 1] & pars[j]
            else:
                exp += 1 + (pars[j - 1] & pars[j])
            arr[j - 1], arr[j] = arr[j], arr[j - 1]
            keys[j - 1], keys[j] = keys[j], keys[j - 1]
            pars[j - 1], pars[j] = pars[j], pars[j - 1]
            j -= 1
    return _finish_normalize(arr, pars, exp, symmetric)


def _finish_normalize(arr, pars, exp, symmetric):
    for i in range(1, len(arr)):
        if arr[i] == arr[i - 1]:
            if symmetric and pars[i]:
                return 0, None
            if not symmetric and not pars[i]:
                return 0, None
    return (-1 if exp % 2 else 1), tuple(arr)


def multilinear(space, fn, args) -> GradedElement:
    """Extend ``fn`` from tuples of basis symbols to a tuple of elements.

    ``fn`` maps a symbol tuple (one symbol per argument) to an element of
    ``space``.  Each tuple is looked up before any coefficient product, so
    mostly-missing supports (the common case) never touch the scalar
    arithmetic; with no arguments the value is ``fn(())`` at coefficient 1.
    """
    coords = {}
    for combo in product(*[a.coords.items() for a in args]):
        val = fn(tuple(nm for nm, _ in combo))
        if val.is_zero():
            continue
        if not combo:
            return val
        coeff = combo[0][1]
        for _, c in combo[1:]:
            coeff = coeff * c
        if scalar_is_zero(coeff):
            continue
        for sym, c in val.coords.items():
            coords[sym] = coords.get(sym, 0) + coeff * c
    return GradedElement(space, coords)


class MultiTable:
    """Graded multilinear map stored on normalized basis tuples.

    symmetry is "skew" (values transform by chi under permutation) or
    "symmetric" (epsilon).  Stored entries are homogeneous: every output
    symbol has degree sum(input degrees) + map_degree.
    """

    def __init__(self, space, arity: int, symmetry: str, map_degree: int):
        if symmetry not in ("skew", "symmetric"):
            raise ValueError("symmetry must be 'skew' or 'symmetric'")
        if arity < 0:
            raise ValueError("arity must be >= 0")
        self.space = space
        self.arity = arity
        self.symmetry = symmetry
        self.map_degree = map_degree
        self.values = {}

    @property
    def is_symmetric(self) -> bool:
        return self.symmetry == "symmetric"

    def is_zero(self) -> bool:
        return not self.values

    def copy(self) -> "MultiTable":
        t = MultiTable(self.space, self.arity, self.symmetry, self.map_degree)
        t.values = dict(self.values)
        return t

    def normalize(self, names):
        return normalize_tuple(self.space, names, self.is_symmetric)

    def set_value(self, names, value: GradedElement):
        """Record the value on a basis tuple (any order; sign is folded in)."""
        if len(names) != self.arity:
            raise ValueError("expected %d arguments, got %d" % (self.arity, len(names)))
        if value.space != self.space:
            raise ValueError("value lives in the wrong space")
        sign, key = self.normalize(names)
        if sign == 0:
            if not value.is_zero():
                raise ValueError("nonzero value on a vanishing tuple %r" % (names,))
            return
        in_deg = sum(self.space.degree(nm) for nm in key)
        for out_sym in value.coords:
            if self.space.degree(out_sym) != in_deg + self.map_degree:
                raise ValueError(
                    "inhomogeneous entry: %r on %r breaks degree %d"
                    % (out_sym, key, self.map_degree)
                )
        stored = value if sign == 1 else -value
        if stored.is_zero():
            self.values.pop(key, None)
        else:
            self.values[key] = stored

    def eval_basis(self, names) -> GradedElement:
        """Value on a tuple of basis symbols, normalizing order and sign."""
        if len(names) != self.arity:
            raise ValueError("expected %d arguments, got %d" % (self.arity, len(names)))
        sign, key = self.normalize(names)
        if sign == 0:
            return self.space.zero()
        val = self.values.get(key)
        if val is None:
            return self.space.zero()
        return val if sign == 1 else -val

    def evaluate(self, args) -> GradedElement:
        """Multilinear evaluation on sparse elements."""
        if len(args) != self.arity:
            raise ValueError("expected %d arguments, got %d" % (self.arity, len(args)))
        for a in args:
            if a.space != self.space:
                raise ValueError("argument lives in the wrong space")
        return multilinear(self.space, self.eval_basis, args)

    def eval_prepend(self, elem: GradedElement, rest_names) -> GradedElement:
        """Evaluate with an element in the first slot and basis symbols after it."""
        return self.evaluate([elem] + [self.space.unit(nm) for nm in rest_names])

    def __eq__(self, other):
        return (
            isinstance(other, MultiTable)
            and self.space == other.space
            and self.arity == other.arity
            and self.symmetry == other.symmetry
            and self.map_degree == other.map_degree
            and self.values == other.values
        )

    def __repr__(self):
        return "MultiTable(arity=%d, %s, deg=%d, %d entries)" % (
            self.arity,
            self.symmetry,
            self.map_degree,
            len(self.values),
        )


def _as_int(c):
    """An integral Fraction as an int; any other coefficient unchanged."""
    return c.numerator if type(c) is Fraction and c.denominator == 1 else c


class ShuffleInsertion:
    """Support-driven evaluator of shuffle-insertion sums over one space.

    ``add`` accumulates, for every sorted word w at once,

        acc[w] += factor * sum_sel sign(sel) * outer(inner(w[sel]) (.) w[~sel])

    with sel running over the position sets of the 2-block shuffles of w and
    sign(sel) the epsilon (symmetric) or chi (skew) sign of moving w[sel] to
    the front.  No word is enumerated: each stored inner key C and output
    symbol s meets every outer key that contains s, with its first copy of s
    taken out, and C merged with that rest is the word.  Words that vanish (a
    repeated odd letter in a symmetric word, a repeated even one in a wedge)
    are dropped, and a letter shared by C and the rest stands for
    binom(count in w, count in C) equal selections.

    Words are tuples of basis indices and accumulate as {symbol: coeff}
    dicts.  Removal indices are read from the tables on first use and live
    as long as the instance: make one per sweep, after any table edits.

    The arithmetic is integer-first: every integral coefficient enters the
    sums as a Python int (each outer table's values once, in the removal
    index, and each inner value once per ``add``), and only non-integral
    ones stay Fraction, so a mixed sum is still exact.  ``nonzero`` and
    ``table`` turn the sums back into Fraction coordinates, so no int
    coordinate leaves the kernel.
    """

    def __init__(self, space, symmetric: bool):
        self.space = space
        self.symmetric = symmetric
        self.index = {nm: i for i, nm in enumerate(space.names)}
        self.pars = [space.parity(nm) for nm in space.names]
        self.vanishing = 1 if symmetric else 0  # parity of a letter that may not repeat
        cross = 0 if symmetric else 1
        self.weight = [[cross + (a & b) for b in self.pars] for a in self.pars]
        self._removals = {}

    def _removal_index(self, outer: MultiTable) -> dict:
        """symbol s -> [(key without its first s, parity of moving s to the front, value items)]."""
        cached = self._removals.get(id(outer))
        if cached is not None:
            return cached[1]
        if outer.is_symmetric != self.symmetric or outer.space != self.space:
            raise ValueError("outer table does not match the insertion space")
        idx, weight = self.index, self.weight
        removals = {}
        for key, val in outer.values.items():
            ids = tuple(idx[nm] for nm in key)
            if not self._is_word(ids):
                continue
            items = [(out, _as_int(v)) for out, v in val.coords.items()]
            for p, s in enumerate(ids):
                if p and ids[p - 1] == s:
                    continue
                exp = sum(weight[s][b] for b in ids[:p])
                removals.setdefault(s, []).append((ids[:p] + ids[p + 1:], exp & 1, items))
        self._removals[id(outer)] = (outer, removals)
        return removals

    def add(self, acc: dict, outer, inners, factor: int = 1) -> None:
        """Accumulate the shuffle insertions of ``inners`` into ``outer``.

        ``inners`` yields (sorted key, element) pairs, the empty key standing
        for an arity-0 element; ``outer`` may be None (nothing to add).
        """
        if outer is None:
            return
        removals = self._removal_index(outer)
        if not removals:
            return
        idx, weight = self.index, self.weight
        for key, val in inners:
            C = tuple(idx[nm] for nm in key)
            if not self._is_word(C):
                continue
            for sym, c in val.coords.items():
                pos = _as_int(c) * factor
                neg = -pos
                for rest, exp, items in removals.get(idx[sym], ()):  # exp: insertion parity so far
                    shared = False
                    for a in C:
                        wa = weight[a]
                        for b in rest:
                            if b < a:
                                exp += wa[b]
                            else:
                                shared = shared or b == a
                                break
                    word = tuple(sorted(C + rest))
                    coef = neg if exp & 1 else pos
                    if shared:
                        mult = self._multiplicity(word, C)
                        if not mult:
                            continue
                        coef = coef * mult
                    d = acc.get(word)
                    if d is None:
                        acc[word] = d = {}
                    for out, v in items:
                        d[out] = d.get(out, 0) + coef * v

    def _is_word(self, ids) -> bool:
        """Sorted and nonvanishing: the only keys a lookup by sorted word reaches."""
        return all(a < b or (a == b and self.pars[a] != self.vanishing) for a, b in zip(ids, ids[1:]))

    def _multiplicity(self, word, C) -> int:
        """Position selections of C's letters in the word; 0 if the word vanishes."""
        mult = 1
        for a in set(C):
            n = word.count(a)
            if n > 1 and self.pars[a] == self.vanishing:
                return 0
            mult *= comb(n, C.count(a))
        return mult

    def add_element(self, acc: dict, key, elem: GradedElement, coeff) -> None:
        """acc[key] += coeff * elem, for a stored key of symbols."""
        word = tuple(self.index[nm] for nm in key)
        if not self._is_word(word):
            return
        d = acc.setdefault(word, {})
        coeff = _as_int(coeff)
        for out, v in elem.coords.items():
            d[out] = d.get(out, 0) + coeff * _as_int(v)

    def nonzero(self, acc: dict) -> list:
        """(word, sorted key of symbols, element) for the nonzero sums, in word order,
        with Fraction coordinates."""
        names = self.space.names
        found = []
        for word, d in sorted((word, d) for word, d in acc.items() if any(d.values())):
            coords = {out: Fraction(v) if type(v) is int else v for out, v in d.items()}
            found.append((word, tuple(names[i] for i in word), GradedElement(self.space, coords)))
        return found

    def table(self, acc: dict, arity: int, map_degree: int) -> MultiTable:
        """The nonzero sums as a table of the given arity and degree."""
        out = MultiTable(self.space, arity, "symmetric" if self.symmetric else "skew", map_degree)
        out.values = {key: elem for _, key, elem in self.nonzero(acc)}
        return out


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
        if table is None or scalar_is_zero(c):
            continue
        if (table.space, table.arity, table.symmetry, table.map_degree) != shape:
            raise ValueError("table does not have the shape of the combination")
        for key, val in table.values.items():
            prev = values.pop(key, None)
            new = val.scale(c) if prev is None else prev + val.scale(c)
            if not new.is_zero():
                values[key] = new
    return out


def shift_table(table: MultiTable, direction: str) -> MultiTable:
    """Transport a table through the degree-shift isomorphism.

    ``to_shifted`` turns a skew arity-n table of degree 2-n over V into the
    symmetric degree-1 table over V[1]; ``to_unshifted`` inverts it.  The two
    directions compose to the identity.
    """
    n = table.arity
    if direction == "to_shifted":
        if table.is_symmetric:
            raise ValueError("to_shifted expects a skew table")
        base = table.space
        if isinstance(base, ShiftedBasis):
            raise ValueError("to_shifted expects a table over an unshifted basis")
        out = MultiTable(base.shifted(1), n, "symmetric", table.map_degree + n - 1)
    elif direction == "to_unshifted":
        if not table.is_symmetric:
            raise ValueError("to_unshifted expects a symmetric table")
        if not isinstance(table.space, ShiftedBasis) or table.space.shift != 1:
            raise ValueError("to_unshifted expects a table over a shift-1 basis")
        base = table.space.underlying
        out = MultiTable(base, n, "skew", table.map_degree - n + 1)
    else:
        raise ValueError("direction must be 'to_shifted' or 'to_unshifted'")
    for key, val in table.values.items():
        s = shift_transport_sign(n, [base.degree(nm) for nm in key])
        out.values[key] = GradedElement(out.space, val.coords if s == 1 else {k: -c for k, c in val.coords.items()})
    return out
