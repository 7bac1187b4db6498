"""Lie algebras on a named basis, and Lie pairs: the engine's input.

A pair is a finite-dimensional Lie algebra L (structure constants on a named
basis) with a subalgebra A and the complementary basis B, so L = A (+) B.
``LieAlgebra.lie`` is the one stored form of those constants, a dict
{(x, y): {z: c}} on ordered name pairs: the Jacobi check (``validate_lie``),
the subalgebra check, the derivation equations and every bracket of the
forms (``liepair.L3Pair``) read it.  Pairs read and write JSON, and
``LiePair.digest`` names a pair in every report.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations

from .scalars import format_rational, parse_rational
from .vectors import GradedBasis, GradedElement, multilinear

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
    """Triples of basis names, in basis order, where the Jacobi identity fails: [[x, y], z] + [[y, z], x]
    + [[z, x], y], summed on the constants over the triples holding a key of ``lie``, the only ones that can."""
    lie, names, index, bad = alg.lie, alg.names, alg.basis.index, []
    triples = {tuple(sorted((index(u), index(v), k))) for u, v in lie for k in range(len(names)) if names[k] not in (u, v)}
    for x, y, z in (map(names.__getitem__, t) for t in sorted(triples)):
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
