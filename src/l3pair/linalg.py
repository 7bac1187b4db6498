"""Exact linear algebra over the rationals: row reduction, kernels, solving.

Matrices come in as lists of rows of rationals (ints, Fractions, anything
``Fraction`` reads), and every entry of a result is a Fraction.  Every
question (kernel, rank, solution, span, independent subset) is one
``_reduce``, read once: the solutions of all right-hand sides from the rows
beside all of them, and an in-order independent subset as the pivot columns
of the matrix whose columns are the vectors.

Inside, ``_reduce`` eliminates on sparse rows {column: int}: each row is
scaled to integers once, a row is combined with a pivot row by integer
multiples and its common factor taken out, and a pivot row is divided by its
pivot only at the end.  The systems in this package are mostly zeros with
small integer entries (the derivation equations of an 8-dimensional algebra
are 224 rows of 64 columns with at most a few nonzeros each), so this touches
only the stored entries and makes Fractions only for the reduced rows.

The reduced row echelon form of a matrix is unique, so the choice of pivot
row cannot change any result; each column takes the shortest candidate row
as its pivot, which keeps the rows sparse.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _integer_row(row) -> dict:
    """{column: int} proportional to a row of rationals, zeros dropped."""
    vals, den = {}, 1
    for c, x in enumerate(row):
        if type(x) is not int:
            x = x if type(x) is Fraction else Fraction(x)
            if x.denominator == 1:
                x = x.numerator
            else:
                den = lcm(den, x.denominator)
        if x:
            vals[c] = x
    if den > 1:
        vals = {c: x * den if type(x) is int else x.numerator * (den // x.denominator) for c, x in vals.items()}
    return vals


def _eliminate(row: dict, col: int, pivot_row: dict) -> dict:
    """A multiple of ``row`` minus a multiple of ``pivot_row`` with no entry in
    ``col``, divided by the gcd of its entries; {} when it vanishes."""
    a, p = row[col], pivot_row[col]
    g = gcd(a, p)
    f, h = p // g, a // g
    out = {k: f * v for k, v in row.items()} if f != 1 else dict(row)
    for k, v in pivot_row.items():
        s = out.get(k, 0) - h * v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    g = gcd(*out.values())
    if g > 1:
        out = {k: v // g for k, v in out.items()}
    return out


def _reduce(rows):
    """(reduced rows, pivot columns) of the reduced row echelon form.

    Only the nonzero rows are returned, as {column: Fraction} with a 1 in
    their pivot column; row k has its pivot in column ``pivots[k]``.
    """
    live = [r for r in map(_integer_row, rows) if r]
    columns = sorted({c for r in live for c in r})
    done, pivots = [], []
    for col in columns:
        best = None
        for i, r in enumerate(live):
            if col in r and (best is None or len(r) < len(live[best])):
                best = i
        if best is None:
            continue
        pivot_row = live.pop(best)
        live = [_eliminate(r, col, pivot_row) if col in r else r for r in live]
        live = [r for r in live if r]
        done = [_eliminate(r, col, pivot_row) if col in r else r for r in done]
        done.append(pivot_row)
        pivots.append(col)
    reduced = []
    for r, col in zip(done, pivots):
        p = r[col]
        reduced.append({k: Fraction(v, p) for k, v in r.items()})
    return reduced, pivots


def rank(rows) -> int:
    return len(_reduce(rows)[1])


def nullspace(rows, ncols=None):
    """Basis of the kernel of the matrix (rows act on column vectors)."""
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    reduced, pivots = _reduce(rows)
    pivot_set = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in zip(reduced, pivots):
            c = r.get(fc)
            if c:
                v[pc] = -c
        basis.append(v)
    return basis


def _solve(augmented, ncols: int, count: int):
    """Per right-hand side, one exact solution (free unknowns 0) or None when inconsistent, all read
    from one ``_reduce`` of ``augmented``: the matrix's rows, the ``count`` sides beside them from ``ncols`` on."""
    reduced, pivots = _reduce(augmented)
    # a right-hand side is inconsistent iff a row with no entry in the matrix reaches it
    missed = {j for r, pc in zip(reduced, pivots) if pc >= ncols for j in r}
    out = [None if j in missed else [Fraction(0)] * ncols for j in range(ncols, ncols + count)]
    for r, pc in zip(reduced, pivots):
        for j, x in enumerate(out, ncols):
            if x is not None and j in r:
                x[pc] = r[j]
    return out


def solve(rows, rhs):
    """One exact solution of rows * x = rhs, or None when inconsistent."""
    if not rows:
        return []
    return _solve([list(r) + [b] for r, b in zip(rows, rhs)], len(rows[0]), 1)[0]


def in_span(vectors, target):
    """Coordinates of ``target`` in the span of ``vectors``, or None.

    vectors and target are coordinate lists of equal length; the returned
    list c satisfies sum(c_i * vectors_i) = target.
    """
    return in_span_all(vectors, [target])[0]


def in_span_all(vectors, targets):
    """``in_span`` of each target, from one elimination of all of them together."""
    return _solve(list(zip(*vectors, *targets)), len(vectors), len(targets))


def independent_subset(vectors):
    """Indices of a maximal linearly independent subset, scanning in order: the pivot
    columns of the matrix whose columns are ``vectors``."""
    return _reduce(list(zip(*vectors)))[1]
