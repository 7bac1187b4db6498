"""Shuffles, permutation signs, and the degree-shift sign.

Sign conventions.  For a permutation s of {1..n} acting on homogeneous
elements v_1,...,v_n:

* epsilon(s; degrees) is the symmetric-algebra sign defined by
  v_1 (.) ... (.) v_n = epsilon * v_{s(1)} (.) ... (.) v_{s(n)},
  i.e. the product of (-1)^(|a||b|) over pairs transposed when rewriting
  the left word into the right one.
* chi(s; degrees) = sgn(s) * epsilon(s; degrees) is the exterior-algebra
  analogue.

The package folds these signs into sorting (``graded.normalize_tuple``) and
into the shuffle-insertion kernel, so the reference definitions of epsilon
and chi per permutation, and per 2-block shuffle, live in the test oracle
(``tests/shuffle_oracle.py``), which checks the kernels against them.

Shuffles are the permutations that keep each block in increasing order;
they are materialized eagerly, in lexicographic order of the block
contents -- the counts stay tiny at the dimensions this package targets.
"""

from __future__ import annotations

from itertools import combinations


def perm_sign(images) -> int:
    """Sign of a permutation given as a tuple of 1-based images."""
    n = len(images)
    sign = 1
    for p in range(n):
        for q in range(p + 1, n):
            if images[p] > images[q]:
                sign = -sign
    return sign


def shuffles2(p: int, q: int) -> list:
    """All (p,q)-shuffles of {1..p+q}, lexicographic in the first block."""
    if p < 0 or q < 0:
        return []
    n = p + q
    universe = range(1, n + 1)
    out = []
    for first in combinations(universe, p):
        rest = tuple(i for i in universe if i not in first)
        out.append(first + rest)
    return out


def shuffles3(i: int, j: int, k: int) -> list:
    """All (i,j,k)-shuffles of {1..i+j+k}, lexicographic by blocks."""
    if i < 0 or j < 0 or k < 0:
        return []
    n = i + j + k
    universe = range(1, n + 1)
    out = []
    for first in combinations(universe, i):
        remaining = tuple(x for x in universe if x not in first)
        for second in combinations(remaining, j):
            third = tuple(x for x in remaining if x not in second)
            out.append(first + second + third)
    return out


def shift_transport_sign(n: int, degrees) -> int:
    """(-1)^(n(n+1)/2) times the shift sign: relates skew n-brackets on V to
    symmetric degree-1 brackets on the shifted space."""
    exp = n * (n + 1) // 2 + sum((n - i) * d for i, d in enumerate(degrees, start=1))
    return -1 if exp % 2 else 1
