"""Shuffles, permutation signs, and Koszul signs.

Sign conventions in one place.  For a permutation s of {1..n} acting on
homogeneous elements v_1,...,v_n:

* epsilon(s; degrees) is the symmetric-algebra sign defined by
  v_1 (.) ... (.) v_n = epsilon * v_{s(1)} (.) ... (.) v_{s(n)},
  i.e. the product of (-1)^(|a||b|) over pairs transposed when rewriting
  the left word into the right one.
* chi(s; degrees) = sgn(s) * epsilon(s; degrees) is the exterior-algebra
  analogue.

Shuffles are the permutations that keep each block in increasing order;
they are materialized eagerly, in lexicographic order of the block
contents -- the counts stay tiny at the dimensions this package targets.
"""

from __future__ import annotations

from itertools import combinations

Permutation = tuple  # images (s(1), ..., s(n)), 1-based


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


def koszul_epsilon(images, degrees) -> int:
    """Symmetric Koszul sign of the permutation on elements of the given degrees."""
    n = len(images)
    if len(degrees) != n:
        raise ValueError("permutation length %d vs %d degrees" % (n, len(degrees)))
    exp = 0
    for p in range(n):
        dp = degrees[images[p] - 1]
        if dp % 2 == 0:
            continue
        for q in range(p + 1, n):
            if images[p] > images[q] and degrees[images[q] - 1] % 2:
                exp += 1
    return -1 if exp % 2 else 1


def koszul_chi(images, degrees) -> int:
    """sgn * epsilon: the skew-symmetric Koszul sign."""
    return perm_sign(images) * koszul_epsilon(images, degrees)


def decalage_sign(n: int, degrees) -> int:
    """(-1)^(sum_i (n-i)|v_i|), the sign of the degree-shift isomorphism."""
    if len(degrees) != n:
        raise ValueError("expected %d degrees" % n)
    exp = sum((n - i) * d for i, d in enumerate(degrees, start=1))
    return -1 if exp % 2 else 1


def shift_transport_sign(n: int, degrees) -> int:
    """(-1)^(n(n+1)/2) times the shift sign: relates skew n-brackets on V to
    symmetric degree-1 brackets on the shifted space."""
    exp = n * (n + 1) // 2 + sum((n - i) * d for i, d in enumerate(degrees, start=1))
    return -1 if exp % 2 else 1


# --- fast selection signs -------------------------------------------------
#
# The hot loops never build Permutation tuples.  A 2-block shuffle of a word
# is determined by the sorted set S of selected positions (0-based); the
# crossings are the pairs (s in S, t not in S, t < s).

def selection_epsilon(parities, sel) -> int:
    """epsilon of the shuffle moving positions ``sel`` (sorted) to the front.

    ``parities`` are the degree parities of the word entries, in place.
    """
    exp = 0
    rank = 0
    pref = 0  # parity count of unselected entries seen so far
    j = 0
    for pos in range(len(parities)):
        if j < len(sel) and sel[j] == pos:
            if parities[pos]:
                exp += pref
            j += 1
            rank += 1
        else:
            pref += parities[pos]
    return -1 if exp % 2 else 1


def selection_chi(parities, sel) -> int:
    """chi of the shuffle moving positions ``sel`` (sorted) to the front."""
    exp = 0
    pref_cnt = 0
    pref_par = 0
    j = 0
    for pos in range(len(parities)):
        if j < len(sel) and sel[j] == pos:
            exp += pref_cnt
            if parities[pos]:
                exp += pref_par
            j += 1
        else:
            pref_cnt += 1
            pref_par += parities[pos]
    return -1 if exp % 2 else 1
