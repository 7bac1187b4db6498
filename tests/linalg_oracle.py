"""Dense Gauss-Jordan over Fraction rows: the reference for ``l3pair.linalg``.

The package row-reduces sparse integer rows and makes Fractions only at its
boundary.  This module keeps the plain dense elimination it replaced, entry
by entry in Fractions, with the kernel, solve and span routines built on it,
for the tests to compare against, and ``sparse_rref``, the package's
elimination laid out as the dense reduced rows the reference returns.  Its
``independent_subset`` and ``extend_basis`` are the greedy loop the package's
pivot columns replace: one rank per candidate.  ``extend_basis``, that loop
past a base, is the reference for the representatives ``CohomologyModel``
picks.
"""

from fractions import Fraction

from l3pair.linalg import _reduce


def rref(rows):
    """Reduced row echelon form.  Returns (new_rows, pivot_columns)."""
    m = [list(map(Fraction, r)) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if m[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def sparse_rref(rows):
    """``rref`` through the package's sparse ``_reduce``: as many dense Fraction rows as
    ``rows``, the zero rows last."""
    ncols = len(rows[0]) if rows else 0
    reduced, pivots = _reduce(rows)
    out = []
    for r in reduced:
        dense = [Fraction(0)] * ncols
        for k, v in r.items():
            dense[k] = v
        out.append(dense)
    out.extend([Fraction(0)] * ncols for _ in range(len(rows) - len(reduced)))
    return out, pivots


def nullspace(rows, ncols=None):
    """Basis of the kernel of the matrix (rows act on column vectors)."""
    if not rows:
        if ncols is None:
            return []
        basis = []
        for j in range(ncols):
            v = [Fraction(0)] * ncols
            v[j] = Fraction(1)
            basis.append(v)
        return basis
    if ncols is None:
        ncols = len(rows[0])
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def solve(rows, rhs):
    """One exact solution of rows * x = rhs, or None when inconsistent."""
    nrows = len(rows)
    if nrows == 0:
        return []
    ncols = len(rows[0])
    aug = [list(map(Fraction, r)) + [Fraction(b)] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    for r in range(len(red)):
        if all(not x for x in red[r][:ncols]) and red[r][ncols]:
            return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(p for p in pivots if p < ncols):
        x[pc] = red[r][ncols]
    if ncols in pivots:
        return None
    return x


def in_span_all(vectors, targets):
    """Coordinates of each target in the span of ``vectors``, or None, from one elimination."""
    if not vectors:
        return [[] if all(not t for t in target) else None for target in targets]
    n = len(vectors)
    rows = [list(col) + [t[i] for t in targets] for i, col in enumerate(zip(*vectors))]
    red, pivots = rref(rows)
    solved = [(r, pc) for r, pc in enumerate(pivots) if pc < n]
    out = []
    for j in range(n, n + len(targets)):
        if any(row[j] and not any(row[:n]) for row in red):
            out.append(None)
            continue
        x = [Fraction(0)] * n
        for r, pc in solved:
            x[pc] = red[r][j]
        out.append(x)
    return out


def rank(rows):
    return len(rref(rows)[1])


def extend_basis(base_vectors, candidates):
    """Indices of candidates extending base_vectors, one rank per candidate: a candidate is
    picked when it raises the rank of the base and the picks before it."""
    rows = [list(v) for v in base_vectors]
    current_rank = rank(rows)
    picked = []
    for i, v in enumerate(candidates):
        rows.append(list(v))
        r = rank(rows)
        if r > current_rank:
            picked.append(i)
            current_rank = r
        else:
            rows.pop()
    return picked


def independent_subset(vectors):
    """Indices of a maximal linearly independent subset, scanning in order."""
    return extend_basis([], vectors)
