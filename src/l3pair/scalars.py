"""Exact rational arithmetic: the scalars of every computation in this package.

Values are stdlib ``fractions.Fraction`` (lowest terms, positive
denominator), read from and written to "p/q" strings.  ``scaled`` brings
rational layers to integers over one common denominator, for every integer
reader of a form table and for the t-layers of the ring Q[t]/(t^(N+1)) that
``mc`` owns.
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


def scaled(layered: dict):
    """(D, {key: integer layers}): every layer of ``layered``, a (label, rational) pair, is its integer over D, the
    least common denominator (``MultiTable.integer_form`` is a table's)."""
    den = lcm(*{c.denominator for layers in layered.values() for _, c in layers})
    return den, {key: tuple([(k, c.numerator * (den // c.denominator)) for k, c in layers]) for key, layers in layered.items()}
