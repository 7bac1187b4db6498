"""Exact scalar arithmetic: rationals and one-variable truncated polynomials.

Every computation in this package happens over the rationals (stdlib
``fractions.Fraction``, which keeps values in lowest terms with a positive
denominator) or over the local ring Q[t]/(t^(N+1)) used as deformation
coefficients.  Elements of the maximal ideal (t) of that ring are the
coefficients of Maurer-Cartan elements; products of N+1 of them vanish,
which is what makes all gauge series below finite.

``TruncatedPoly`` is the boundary type of that ring: element coordinates,
JSON, the command line and the tests see it, and it takes only int and
Fraction coefficients.  It is built by its constructor (``const`` for a
constant) and written by ``to_json``; its ring operations serve element
arithmetic, such as the order-1 closed forms of ``check gauge``
(xi - d b).  The gauge calculus computes on t-layers instead:
``layers_of`` splits a coefficient into its nonzero (power, rational)
pairs, ``convolve`` multiplies two such tuples and drops every power above
the order, and ``scaled`` brings a layered element to integers over one
common denominator, so that the convolutions are integer products; every
integer reader of a form table reads that table through ``scaled`` too.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm

DEFAULT_ORDER = 4  # default truncation for gauge experiments


_ASCII_INTEGER = re.compile(r"[+-]?[0-9]+")


def parse_rational(s: str) -> Fraction:
    """Parse "p/q" or "p" into an exact rational; other input raises ValueError.

    p and q are ASCII digits with an optional sign, and may be padded with
    whitespace: ``int`` alone would also take underscores ("1_000") and the
    digits of other scripts.
    """
    if not isinstance(s, str):
        raise ValueError('a rational must be a string "p/q" or "p", got %r' % (s,))
    s = s.strip()
    parts = s.split("/", 1)
    if not all(_ASCII_INTEGER.fullmatch(part.strip()) for part in parts):
        raise ValueError('a rational must be "p/q" or "p" in ASCII digits, got %r' % (s,))
    if len(parts) == 2:
        den = int(parts[1])
        if den == 0:
            raise ValueError("zero denominator in %r" % (s,))
        return Fraction(int(parts[0]), den)
    return Fraction(int(parts[0]))


def format_rational(x) -> str:
    """Canonical string form: "p/q", or "p" when the denominator is 1."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)


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


def convolve(a: tuple, b: tuple, top: int) -> tuple:
    """Truncated product of two layer tuples: every power above ``top`` is dropped."""
    out = {}
    for i, x in a:
        if i > top:
            break
        for j, y in b:
            k = i + j
            if k > top:
                break
            out[k] = out.get(k, 0) + x * y
    return tuple((k, out[k]) for k in sorted(out) if out[k])


def scaled(layered: dict):
    """(D, {key: integer layers}): every layer of ``layered``, a (label, rational) pair, is its integer over D, the
    least common denominator (``MultiTable.integer_form`` is a table's)."""
    den = lcm(*{c.denominator for layers in layered.values() for _, c in layers})
    return den, {key: tuple([(k, c.numerator * (den // c.denominator)) for k, c in layers]) for key, layers in layered.items()}


def format_scalar(c) -> object:
    """JSON form of a coefficient: rational string or truncated-poly dict."""
    if isinstance(c, TruncatedPoly):
        return c.to_json()
    return format_rational(c)
