"""The degree-shift sign, and the sign conventions of the package.

Sign conventions.  For a permutation s of {1..n} acting on homogeneous
elements v_1,...,v_n:

* epsilon(s; degrees) is the symmetric-algebra sign defined by
  v_1 (.) ... (.) v_n = epsilon * v_{s(1)} (.) ... (.) v_{s(n)},
  i.e. the product of (-1)^(|a||b|) over pairs transposed when rewriting
  the left word into the right one.
* chi(s; degrees) = sgn(s) * epsilon(s; degrees) is the exterior-algebra
  analogue.

The package folds these signs into sorting (``graded.normalize_tuple``) and
into the shuffle-insertion kernel, so the reference definitions of the
permutation sign, of epsilon and chi per permutation and per 2-block
shuffle, and the shuffles themselves (the permutations that keep each block
in increasing order) live in the test oracle (``tests/shuffle_oracle.py``),
which checks the kernels against them.
"""

from __future__ import annotations


def shift_transport_sign(n: int, degrees) -> int:
    """(-1)^(n(n+1)/2) times the shift sign: relates skew n-brackets on V to
    symmetric degree-1 brackets on the shifted space."""
    exp = n * (n + 1) // 2 + sum((n - i) * d for i, d in enumerate(degrees, start=1))
    return -1 if exp % 2 else 1
