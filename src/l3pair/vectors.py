"""Graded vector spaces with named bases and their sparse elements.

Coordinates are exact rationals, ints or Fractions; ``mc`` holds the values
of Q[t]/(t^(N+1)) as integer t-layers.  Every operation on elements is
multilinear and fixed by its values on basis symbols; ``multilinear`` is the
one extension from symbol tuples to sparse elements, and every element-level
bracket, action and table evaluation in the package goes through it.  One
space of forms is read in two gradings, V for the brackets and V[1] for the
codifferential: ``GradedBasis.shifted(k)`` is the same basis with every
degree lowered by k, recording ``shift`` and the unshifted ``underlying``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .scalars import format_rational


class GradedBasis:
    """Ordered finite basis of a graded vector space: (name, degree) pairs.

    ``shifted(k)`` lowers every degree by k.  The result records the total
    ``shift`` and the unshifted ``underlying`` basis (None on an unshifted
    one, which a total shift of 0 returns); two bases are equal when their
    symbols and their shifts are.
    """

    def __init__(self, symbols):
        symbols = tuple((str(n), int(d)) for n, d in symbols)
        names = [n for n, _ in symbols]
        if len(set(names)) != len(names):
            raise ValueError("duplicate basis names")
        self.symbols = symbols
        self.names = tuple(names)
        self._index = {n: i for i, n in enumerate(names)}
        self._degree = {n: d for n, d in symbols}
        self.shift = 0
        self.underlying = None

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
        return isinstance(other, GradedBasis) and self.symbols == other.symbols and self.shift == other.shift

    def __hash__(self):
        return hash((self.symbols, self.shift))

    def __repr__(self):
        if self.shift:
            return "GradedBasis(%r).shifted(%d)" % (self.underlying.symbols, self.shift)
        return "GradedBasis(%r)" % (self.symbols,)

    def shifted(self, shift: int = 1) -> "GradedBasis":
        base = self if self.underlying is None else self.underlying
        if self.shift + shift == 0:
            return base
        out = GradedBasis((n, d - shift) for n, d in self.symbols)
        out.shift, out.underlying = self.shift + shift, base
        return out

    def zero(self) -> "GradedElement":
        return GradedElement(self, {})

    def unit(self, name: str) -> "GradedElement":
        if name not in self._index:
            raise ValueError("unknown basis symbol %r" % (name,))
        return GradedElement(self, {name: Fraction(1)})

    def element(self, coords: dict) -> "GradedElement":
        """The element with coordinates {symbol index: coefficient}."""
        return GradedElement(self, {self.names[i]: c for i, c in coords.items()})


class GradedElement:
    """Finitely supported coordinate vector over a basis, shifted or not.

    Coordinates are rationals (ints or Fractions: the bracket tables of a
    pair hold its integral structure constants as ints) or ring elements with
    a ``to_json()``; zeros are scrubbed, so equality of elements is equality
    of coordinate mappings, and an int equals the Fraction of the same value.
    """

    __slots__ = ("space", "coords")

    def __init__(self, space, coords):
        self.space = space
        self.coords = {n: c for n, c in coords.items() if c}
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
        if not c:
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
            n: c.to_json() if hasattr(c := self.coords[n], "to_json") else format_rational(c)
            for n in sorted(self.coords, key=self.space.index)
        }


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
        if not coeff:
            continue
        for sym, c in val.coords.items():
            coords[sym] = coords.get(sym, 0) + coeff * c
    return GradedElement(space, coords)
