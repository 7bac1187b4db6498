import random
from itertools import permutations

import pytest

from shuffle_oracle import (
    decalage_sign, koszul_chi, koszul_epsilon, perm_sign, selection_chi, selection_epsilon, shuffles2, shuffles3
)


def is_shuffle2(images, p: int, q: int) -> bool:
    """Both blocks of the permutation are increasing."""
    a = images[:p]
    b = images[p:p + q]
    return all(a[i] < a[i + 1] for i in range(len(a) - 1)) and all(b[i] < b[i + 1] for i in range(len(b) - 1))


def compose(sigma, tau):
    """(sigma . tau)(i) = sigma(tau(i))."""
    return tuple(sigma[t - 1] for t in tau)


def epsilon_by_bubbling(images, degrees):
    """Normal-form oracle: transform the identity word into the permuted word
    by adjacent swaps, collecting one Koszul factor per swap."""
    current = list(range(1, len(images) + 1))
    target = list(images)
    sign = 1
    for pos in range(len(target)):
        j = current.index(target[pos])
        while j > pos:
            a, b = current[j - 1], current[j]
            if degrees[a - 1] % 2 and degrees[b - 1] % 2:
                sign = -sign
            current[j - 1], current[j] = current[j], current[j - 1]
            j -= 1
    assert current == target
    return sign


def test_shuffles2_examples():
    assert shuffles2(2, 1) == [(1, 2, 3), (1, 3, 2), (2, 3, 1)]
    assert shuffles2(0, 3) == [(1, 2, 3)]
    assert len(shuffles2(2, 2)) == 6


def test_shuffles2_counts_and_membership():
    from math import comb

    for p in range(0, 4):
        for q in range(0, 4):
            sh = shuffles2(p, q)
            assert len(sh) == comb(p + q, p)
            assert len(set(sh)) == len(sh)
            for sigma in sh:
                assert is_shuffle2(sigma, p, q)


def test_shuffles3_examples():
    assert len(shuffles3(1, 1, 1)) == 6
    assert set(shuffles3(1, 1, 1)) == set(permutations((1, 2, 3)))
    assert set(shuffles3(2, 0, 1)) == set(shuffles2(2, 1))
    assert len(shuffles3(1, 1, 0)) == 2


def test_shuffles3_counts():
    from math import factorial

    for i in range(0, 3):
        for j in range(0, 3):
            for k in range(0, 3):
                sh = shuffles3(i, j, k)
                n = i + j + k
                assert len(sh) == factorial(n) // (factorial(i) * factorial(j) * factorial(k))
                assert len(set(sh)) == len(sh)


def test_koszul_epsilon_examples():
    assert koszul_epsilon((1, 2, 3), [5, -2, 7]) == 1
    assert koszul_epsilon((2, 1), [1, 1]) == -1
    assert koszul_epsilon((2, 1), [2, 1]) == 1


def test_koszul_chi_examples():
    assert koszul_chi((1, 2), [3, 4]) == 1
    assert koszul_chi((2, 1), [1, 1]) == 1
    assert koszul_chi((2, 1), [0, 0]) == -1


def test_koszul_length_mismatch():
    with pytest.raises(ValueError):
        koszul_epsilon((1, 2), [1])
    with pytest.raises(ValueError):
        koszul_chi((1,), [1, 2])


def test_epsilon_against_bubbling_oracle():
    rng = random.Random(23)
    for _ in range(300):
        n = rng.randint(1, 6)
        sigma = tuple(rng.sample(range(1, n + 1), n))
        degs = [rng.randint(-2, 3) for _ in range(n)]
        assert koszul_epsilon(sigma, degs) == epsilon_by_bubbling(sigma, degs)


def test_chi_is_sign_times_epsilon():
    rng = random.Random(29)
    for _ in range(200):
        n = rng.randint(1, 6)
        sigma = tuple(rng.sample(range(1, n + 1), n))
        degs = [rng.randint(-2, 3) for _ in range(n)]
        assert koszul_chi(sigma, degs) == perm_sign(sigma) * koszul_epsilon(sigma, degs)


def test_epsilon_composition_cocycle():
    # epsilon(sigma . tau; v) = epsilon(sigma; v) * epsilon(tau; v permuted by sigma)
    rng = random.Random(31)
    for _ in range(200):
        n = rng.randint(1, 6)
        sigma = tuple(rng.sample(range(1, n + 1), n))
        tau = tuple(rng.sample(range(1, n + 1), n))
        degs = [rng.randint(-2, 3) for _ in range(n)]
        permuted = [degs[sigma[i] - 1] for i in range(n)]
        lhs = koszul_epsilon(compose(sigma, tau), degs)
        rhs = koszul_epsilon(sigma, degs) * koszul_epsilon(tau, permuted)
        assert lhs == rhs


def test_decalage_sign_examples():
    assert decalage_sign(1, [7]) == 1
    assert decalage_sign(2, [1, 0]) == -1
    assert decalage_sign(3, [1, 1, 0]) == -1


def test_shifted_degree_relation():
    # (-1)^(sum (n-i)|x_sigma(i)|) eps(sigma; shifted) = (-1)^(sum (n-i)|x_i|) chi(sigma; unshifted)
    rng = random.Random(37)
    for _ in range(300):
        n = rng.randint(1, 6)
        sigma = tuple(rng.sample(range(1, n + 1), n))
        degs = [rng.randint(-2, 3) for _ in range(n)]
        shifted = [d - 1 for d in degs]
        lhs_exp = sum((n - i) * degs[sigma[i - 1] - 1] for i in range(1, n + 1))
        lhs = (-1 if lhs_exp % 2 else 1) * koszul_epsilon(sigma, shifted)
        rhs_exp = sum((n - i) * degs[i - 1] for i in range(1, n + 1))
        rhs = (-1 if rhs_exp % 2 else 1) * koszul_chi(sigma, degs)
        assert lhs == rhs


def test_selection_signs_match_permutation_signs():
    # moving a sorted selection to the front is a 2-block shuffle
    rng = random.Random(41)
    for _ in range(300):
        n = rng.randint(1, 7)
        k = rng.randint(0, n)
        sel = sorted(rng.sample(range(n), k))
        degs = [rng.randint(-2, 3) for _ in range(n)]
        parities = [d % 2 for d in degs]
        images = tuple(p + 1 for p in sel) + tuple(p + 1 for p in range(n) if p not in set(sel))
        # images as positions selected first: the permutation sending slot i to
        # original position images[i]; its Koszul signs on the original degrees
        assert selection_epsilon(parities, sel) == koszul_epsilon(images, degs)
        assert selection_chi(parities, sel) == koszul_chi(images, degs)
