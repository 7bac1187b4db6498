"""Normalized multilinear tables over a graded space (``vectors``), and the shuffle-insertion kernel.

A ``MultiTable`` stores a graded skew- or graded-symmetric multilinear map by
its values on normalized basis tuples (sorted by basis order, Koszul sign
folded in).  Evaluation on arbitrary tuples re-normalizes with the chi (skew)
or epsilon (symmetric) sign, so table equality is plain mapping equality, and
on elements it goes through ``vectors.multilinear``.  ``tabulate`` is the one
loop that builds a form table from its value on each basis tuple, {symbol
index: coefficient}, making an element of a nonzero value only; tables are
summed only inside the shuffle-insertion kernel.  A table knows its
grading, V or V[1], by its space, and ``shift_table`` transports it between
the two with the decalage sign.  The shuffle-insertion kernel reads a table
as integers over its denominator (``MultiTable.integer_form``) and adds
them into integers over one denominator per ``Accumulator``.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd

from .scalars import scaled
from .vectors import GradedBasis, GradedElement, multilinear


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
    for i in range(1, n):
        if arr[i] == arr[i - 1] and (pars[i] if symmetric else not pars[i]):
            return 0, None
    return (-1 if exp % 2 else 1), tuple(arr)


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

    def integer_form(self):
        """(D, {key: ((symbol, integer), ...)}): the rational values as integers over their common denominator D."""
        return scaled({key: val.coords.items() for key, val in self.values.items()})

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


class Accumulator(dict):
    """One side's sums of a kernel walk: word + output index -> int, over one ``den`` (raising it multiplies them)."""

    den = 1

    def unit(self, factor, den: int) -> int:
        """factor / den as an int over ``den`` here, raised first to a multiple of den times factor's denominator."""
        num, den = factor.numerator, den * factor.denominator
        grow = den // gcd(self.den, den)
        if grow != 1:
            for key in self:
                self[key] *= grow
            self.den *= grow
        return num * self.den // den


class ShuffleInsertion:
    """Support-driven evaluator of shuffle-insertion sums, in both gradings of one space at once.

    Side 0 reads skew tables over V (``space``), side 1 symmetric ones over
    V[1] (``space.shifted(1)``).  ``add`` accumulates, on each side and for
    every sorted word w at once,

        acc[w] += factor * sum_sel sign(sel) * outer(inner(w[sel]) (.) w[~sel])

    with sel running over the position sets of the 2-block shuffles of w and
    sign(sel) the chi (side 0) or epsilon (side 1) sign of moving w[sel] to
    the front.  No word is enumerated: each stored inner key C and output
    symbol s meets every outer key that contains s, with its first copy of s
    taken out, and C merged with that rest is the word.  Words that vanish (a
    repeated letter even in V, so odd in V[1]) are dropped, and a letter
    shared by C and the rest stands for binom(count in w, count in C) equal
    selections.  The decalage keeps every key, so both sides meet at the same
    joins: a table and its transport (l_n and Q_n, mu_r and psi_r) are one
    (side 0, side 1) pair, compiled on the union of their keys; each join
    (which keys meet, the merged word, the multiplicity) is made once, and
    each side adds into its own accumulator with its own values, D, merge
    sign and factor.  A side with factor 0 or no table is idle, so a
    one-sided sum is the same walk; ``joins`` counts the outer keys met.

    Make one kernel per check and pass it every table pair the check reads:
    a pair is compiled on first read, by identity, and its tables must not be
    edited after that.  A word is one int holding the count of letter a in
    the 8 bits from ``obits + 8a``, so a merge is an addition, and an
    ``Accumulator`` maps word + output index to an integer over its one
    denominator.  A table compiles from its integers over its D
    (``integer_form``); a term raises that denominator to a multiple of D
    times its factor's and adds integers, and ``nonzero`` divides once per word.
    """

    def __init__(self, space):
        self.spaces = (space, space.shifted(1))
        self.index = {nm: i for i, nm in enumerate(space.names)}
        pars = [space.parity(nm) for nm in space.names]
        even = self.even = sum(1 << a for a, p in enumerate(pars) if not p)  # letters that may not repeat in a word
        # flips[side][a]: the letters b < a whose crossing with a flips that side's sign: on V every b but an
        # odd b under an odd a, on V[1] a b odd there under an a odd there (odd in V[1] is even in V)
        self.flips = ([(1 << a) - 1 & (even if p else -1) for a, p in enumerate(pars)],
                      [0 if p else (1 << a) - 1 & even for a, p in enumerate(pars)])
        self.obits = len(pars).bit_length()
        self.joins = 0
        self._compiled = {}  # ids of a table pair -> its compiled form, which holds the tables and so the ids

    def _compile(self, tables) -> tuple:
        """(tables, (D0, D1), entries, removals, producers) of a (side 0, side 1) pair of tables, compiled on
        first read on their sorted nonvanishing keys (the only ones a lookup by word reaches), a missing
        value as 0: entries (code + output index, value per side) for ``add_table``; removals, the outer
        role, letter s -> [keys with s, rows (code + output index, odd letters, shared, value per side)],
        ``shared`` the key's letters less s (plus s when it holds s twice), each value signed by its side's
        parity of moving the first s to the front; producers, the inner role, output s -> (code, code less
        one s, letters, crossing per side, value per side), bit b of a crossing the parity of the key's
        letters above b whose crossing with b flips that side's sign, each value signed by its crossing
        bit s (the rest's odd letters are the outer key's with s toggled)."""
        compiled = self._compiled.get((id(tables[0]), id(tables[1])))
        if compiled is not None:
            return compiled
        forms = []
        for side, table in enumerate(tables):
            if table is not None and (table.is_symmetric != side or table.space != self.spaces[side]):
                raise ValueError("table does not match the insertion space")
            if table is not None and table.arity > 127:  # two merged keys could count a letter past 255
                raise ValueError("table arity %d exceeds the kernel's 127" % table.arity)
            forms.append(table.integer_form() if table is not None else (1, {}))
        (den0, values0), (den1, values1) = forms
        entries, removals, producers = [], {}, {}
        index, (flips0, flips1), obits = self.index, self.flips, self.obits
        for key in {**values0, **values1}:
            ids = tuple(map(index.__getitem__, key))
            if any(a > b or a == b and self.even >> a & 1 for a, b in zip(ids, ids[1:])):
                continue
            code = present = odd = cross0 = cross1 = 0
            for a in ids:
                code, present, odd = code + (1 << obits + 8 * a), present | 1 << a, odd ^ 1 << a
                cross0, cross1 = cross0 ^ flips0[a], cross1 ^ flips1[a]
            outputs = {}
            for nm, v in values0.get(key, ()):
                outputs[index[nm]] = [v, 0]
            for nm, v in values1.get(key, ()):
                outputs.setdefault(index[nm], [0, 0])[1] = v
            for out, (v0, v1) in outputs.items():
                entries.append((code + out, v0, v1))
                producers.setdefault(out, []).append((code, code - (1 << obits + 8 * out), present, cross0, cross1,
                                                      -v0 if cross0 >> out & 1 else v0, -v1 if cross1 >> out & 1 else v1))
            before = 0  # odd letters before position p
            for p, s in enumerate(ids):
                if not p or ids[p - 1] != s:
                    shared = present & ~(1 << s) | (1 << s if ids[p + 1:p + 2] == (s,) else 0)
                    flip0, flip1 = (before & flips0[s]).bit_count() & 1, (before & flips1[s]).bit_count() & 1
                    found = removals.setdefault(s, [0, []])
                    found[0] += 1
                    for out, (v0, v1) in outputs.items():
                        found[1].append((code + out, odd, shared, -v0 if flip0 else v0, -v1 if flip1 else v1))
                before ^= 1 << s
        compiled = self._compiled[id(tables[0]), id(tables[1])] = (tables, (den0, den1), entries, removals, producers)
        return compiled

    def add(self, accs, outer, inner, factors) -> None:
        """Accumulate the shuffle insertions of the ``inner`` table pair (arity 0: its value on the empty word)
        into the ``outer`` one, side i into ``accs[i]`` times ``factors[i]``; ``_compile`` gives the signs."""
        _, odens, _, removals, _ = self._compile(outer)
        _, idens, _, _, producers = self._compile(inner)
        unit0, unit1 = (acc.unit(f, dout * din) if f else 0 for acc, f, dout, din in zip(accs, factors, odens, idens))
        (acc0, acc1), multiplicity = accs, self._multiplicity
        get0, get1 = acc0.get, acc1.get
        for s, made in producers.items():
            found = removals.get(s)
            if found is None:
                continue
            self.joins += found[0] * len(made)
            for code, base, letters, cross0, cross1, c0, c1 in made:
                pos0, pos1 = c0 * unit0, c1 * unit1
                signed0, signed1 = (pos0, -pos0) if pos0 else (), (pos1, -pos1) if pos1 else ()  # by sign parity
                for key, kodd, shared, v0, v1 in found[1]:
                    key += base
                    if letters & shared:
                        mult = multiplicity(key, code, letters & shared)
                        if not mult:
                            continue
                        v0, v1 = v0 * mult, v1 * mult
                    if signed0:
                        acc0[key] = get0(key, 0) + signed0[(kodd & cross0).bit_count() & 1] * v0
                    if signed1:
                        acc1[key] = get1(key, 0) + signed1[(kodd & cross1).bit_count() & 1] * v1

    def _multiplicity(self, word, code, shared) -> int:
        """Selections in the word of the ``shared`` letters of the key ``code``; 0 if one is even in V."""
        if shared & self.even:
            return 0
        mult = 1
        while shared:
            at = self.obits + 8 * (shared.bit_length() - 1)
            mult *= comb(word >> at & 255, code >> at & 255)
            shared &= ~(1 << shared.bit_length() - 1)
        return mult

    def add_table(self, accs, tables, coeff) -> None:
        """accs[i][w] += coeff * tables[i][w] for every word key w of each table of the pair (None adds nothing)."""
        _, dens, entries, _, _ = self._compile(tables)
        c0, c1 = (acc.unit(coeff, d) for acc, d in zip(accs, dens))
        for key, v0, v1 in entries:
            if v0:
                accs[0][key] = accs[0].get(key, 0) + c0 * v0
            if v1:
                accs[1][key] = accs[1].get(key, 0) + c1 * v1

    def nonzero(self, acc: Accumulator, side: int) -> list:
        """(word, sorted key of symbols, element of that side's space) for the nonzero sums, in word order,
        each divided by the accumulator's denominator into a Fraction."""
        space, obits, den = self.spaces[side], self.obits, acc.den
        names = space.names
        words = {}
        for key, v in acc.items():
            if v:
                words.setdefault(key >> obits, {})[names[key & (1 << obits) - 1]] = Fraction(v, den)
        found = []
        for code, coords in words.items():
            word = tuple(a for a in range(len(names)) for _ in range(code >> 8 * a & 255))
            found.append((word, tuple(names[i] for i in word), GradedElement(space, coords)))
        return sorted(found, key=lambda f: f[0])

    def table(self, acc: Accumulator, arity: int, map_degree: int) -> MultiTable:
        """The nonzero sums of side 1 as a symmetric table over V[1] of the given arity and degree."""
        out = MultiTable(self.spaces[1], arity, "symmetric", map_degree)
        out.values = {key: elem for _, key, elem in self.nonzero(acc, 1)}
        return out


def tabulate(space: GradedBasis, arity: int, map_degree: int, keys, value) -> MultiTable:
    """The skew table of the given shape holding value(*key), {symbol index: coefficient}, on
    each basis tuple of ``keys``; only a nonzero value is made an element and stored."""
    table = MultiTable(space, arity, "skew", map_degree)
    for key in keys:
        coords = value(*key)
        if any(coords.values()):
            table.set_value(key, space.element(coords))
    return table


# --- the degree shift ---------------------------------------------------------
#
# Sign conventions.  For a permutation s of {1..n} acting on homogeneous
# elements v_1,...,v_n:
#
# * epsilon(s; degrees) is the symmetric-algebra sign defined by
#   v_1 (.) ... (.) v_n = epsilon * v_{s(1)} (.) ... (.) v_{s(n)},
#   i.e. the product of (-1)^(|a||b|) over pairs transposed when rewriting
#   the left word into the right one;
# * chi(s; degrees) = sgn(s) * epsilon(s; degrees) is the exterior-algebra
#   analogue.
#
# The package folds these signs into sorting (``normalize_tuple``) and into
# the shuffle-insertion kernel; the reference definitions of the permutation
# sign, of epsilon and chi per permutation and per 2-block shuffle, and the
# shuffles themselves live in the test oracle, which checks the kernels
# against them.  A skew table over V and a symmetric one over V[1] are
# related by the decalage sign of Lada-Markl (1995), ``shift_transport_sign``.

def shift_transport_sign(n: int, degrees) -> int:
    """(-1)^(n(n+1)/2) times the shift sign: relates skew n-brackets on V to
    symmetric degree-1 brackets on the shifted space."""
    exp = n * (n + 1) // 2 + sum((n - i) * d for i, d in enumerate(degrees, start=1))
    return -1 if exp % 2 else 1


def shift_table(table: MultiTable, sign: int = 1) -> MultiTable:
    """Transport a table through the degree-shift isomorphism, times ``sign``.

    A skew arity-n table of degree 2-n over an unshifted V becomes the
    symmetric degree-1 table over V[1], and a symmetric table over V[1]
    comes back to the skew one over V; the two compose to the identity.
    Any other table raises.
    """
    n, space = table.arity, table.space
    if space.shift == 0 and not table.is_symmetric:
        base = space
        out = MultiTable(base.shifted(1), n, "symmetric", table.map_degree + n - 1)
    elif space.shift == 1 and table.is_symmetric:
        base = space.underlying
        out = MultiTable(base, n, "skew", table.map_degree - n + 1)
    else:
        raise ValueError("shift_table takes a skew table over V or a symmetric table over V[1]")
    for key, val in table.values.items():
        s = sign * shift_transport_sign(n, [base.degree(nm) for nm in key])
        out.values[key] = GradedElement(out.space, val.coords if s == 1 else {k: -c for k, c in val.coords.items()})
    return out
