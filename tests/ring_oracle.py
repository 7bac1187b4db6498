"""The coefficient ring R = Q[t]/(t^(N+1)) as an element type: the independent ring the layered values are compared against.

The package holds every value over R as a layered value, (D, {symbol:
integer t-layers}) in lowest terms (``mc``).  ``TruncatedPoly`` is R's
element with N+1 rational coefficients and ring operations of its own, and
``GradedElement`` coordinates of that type evaluate tables and sum elements
by ``vectors``' own arithmetic, none of it shared with ``mc``.  ``layered``
turns such an element (rational coordinates allowed, as layers at t^0)
into the layered form the package reads, through ``layers_of`` and
``scalars.scaled``; ``element`` turns a layered value back, and
``require_ideal`` is the check the package made on such elements before it
read layered values: every coordinate a ``TruncatedPoly`` of the context's
order with no constant term.
"""

from fractions import Fraction

from l3pair.scalars import format_rational, scaled
from l3pair.vectors import GradedElement


class TruncatedPoly:
    """Element of Q[t]/(t^(order+1)), stored as order+1 rational coefficients.

    Immutable.  Arithmetic truncates everything above t^order.  Rationals and
    ints mix in freely as constants of the same order; any other coefficient
    (a float, a string) raises TypeError rather than being read inexactly.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs=()):
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        cs = []
        for c in coeffs:
            if not isinstance(c, (int, Fraction)):
                raise TypeError("coefficients must be int or Fraction, got %r" % (c,))
            cs.append(c if type(c) is Fraction else Fraction(c))
        if len(cs) > order + 1:
            raise ValueError("got %d coefficients for order %d" % (len(cs), order))
        cs += [Fraction(0)] * (order + 1 - len(cs))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError("TruncatedPoly is immutable")

    @classmethod
    def const(cls, order: int, c) -> "TruncatedPoly":
        return cls(order, [c])

    def _coerce(self, other):
        if isinstance(other, TruncatedPoly):
            if other.order != self.order:
                raise ValueError(
                    "truncation orders differ: %d vs %d" % (self.order, other.order)
                )
            return other
        if isinstance(other, (int, Fraction)):
            return TruncatedPoly.const(self.order, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return TruncatedPoly(self.order, [a + b for a, b in zip(self.coeffs, o.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return TruncatedPoly(self.order, [-a for a in self.coeffs])

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return TruncatedPoly(self.order, [a - b for a, b in zip(self.coeffs, o.coeffs)])

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = self.order
        out = [Fraction(0)] * (n + 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j in range(0, n + 1 - i):
                b = o.coeffs[j]
                if b:
                    out[i + j] += a * b
        return TruncatedPoly(n, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        o = self._coerce(other) if not isinstance(other, TruncatedPoly) else other
        if not isinstance(o, TruncatedPoly) or o.order != self.order:
            return NotImplemented if not isinstance(other, (int, Fraction)) else False
        return self.coeffs == o.coeffs

    def __hash__(self):
        # a polynomial with no t-terms equals its constant term, so it hashes as one
        return hash((self.order, self.coeffs)) if any(self.coeffs[1:]) else hash(self.coeffs[0])

    def __bool__(self):
        return any(self.coeffs)

    def __repr__(self):
        terms = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                terms.append(format_rational(c))
            else:
                tk = "t" if k == 1 else "t^%d" % k
                terms.append(tk if c == 1 else "%s*%s" % (format_rational(c), tk))
        body = " + ".join(terms) if terms else "0"
        return "TruncatedPoly(%d, %s)" % (self.order, body)

    def in_ideal(self) -> bool:
        """Membership in the maximal ideal (t): no constant term."""
        return not self.coeffs[0]

    def to_json(self) -> dict:
        return {"order": self.order, "coeffs": [format_rational(c) for c in self.coeffs]}


def layers_of(c) -> tuple:
    """The nonzero t-layers of a coefficient: (power, rational) pairs by increasing power.
    A rational is one layer at power 0."""
    coeffs = c.coeffs if isinstance(c, TruncatedPoly) else (c,)
    return tuple((k, a) for k, a in enumerate(coeffs) if a)



def layered(elem: GradedElement) -> tuple:
    """The layered value (D, {symbol: integer t-layers}) of an element with ``TruncatedPoly`` or rational coordinates."""
    return scaled({nm: layers_of(c) for nm, c in elem.coords.items()})


def element(ctx, value: tuple) -> GradedElement:
    """The element over ``ctx.l3.basis`` with ``TruncatedPoly`` coordinates of order ``ctx.order`` of a layered
    value; a layer above that order raises ValueError."""
    den, layers_by_symbol = value
    coords = {}
    for nm, layers in layers_by_symbol.items():
        dense = [0] * (1 + max(k for k, _ in layers))
        for k, a in layers:
            dense[k] = Fraction(a, den)
        coords[nm] = TruncatedPoly(ctx.order, dense)
    return GradedElement(ctx.l3.basis, coords)


def require_ideal(ctx, elem: GradedElement, what: str) -> None:
    """Every coordinate of ``elem`` a ``TruncatedPoly`` of order ``ctx.order`` in the ideal (t), or ValueError."""
    for nm, c in elem.coords.items():
        if not isinstance(c, TruncatedPoly) or c.order != ctx.order:
            raise ValueError("%s must have order-%d coefficients" % (what, ctx.order))
        if not c.in_ideal():
            raise ValueError("%s has a nonzero constant term at %r" % (what, nm))
