"""Every integer reader of a form table divides by the table's denominator.

``scalars.scaled`` is the one conversion of a rational table to integers over
its denominator D (``MultiTable.integer_form``), and three readers take its
output: the shuffle-insertion kernel's compile step, ``mc.layered_action``
(the ad_b action, the contracted brackets and any combination of a derivation
basis) and the twisted series, through ``MCContext.brackets``.  The kernel
adds into a ``graded.Accumulator``: integers over one denominator, which a
term raises (multiplying the held sums) and ``nonzero`` divides by.  No
catalog pair has a non-integral bracket table, so each reader here loses its
D in turn on pairs that do: both sl3 pairs on a rescaled basis of L, sl2
itself (its Der(L) maps have D = 2) and the Heisenberg algebra with a
derivation basis of thirds and fifths, and so does an accumulator, by reading
its sums over 1 or by raising its denominator without multiplying them.  Each
drop must trip a check on at least two of them, with no drop every check
passes, and no accumulator holds a Fraction.
"""

import random
from functools import cached_property

import pytest

from l3pair import catalog
from l3pair import deraction as da
from l3pair import graded, linfty
from l3pair import mc as mcmod
from l3pair.lie import LiePair
from l3pair.liepair import L3Pair
from l3pair.linfty import compose

import gauge_oracle as go
import shuffle_oracle as oracle
from helpers import jacobi_walk, rescaled, theta_gamma
from test_shuffle_kernel import FACTORS


def _case(name: str):
    """(L3Pair, derivation basis) of one case: a catalog pair, on a rescaled basis of L or with a
    rescaled derivation basis."""
    pair = catalog.make_pair(name.split()[0])
    if name.endswith(" rescaled"):
        pair = LiePair(rescaled(pair.algebra), pair.a_names)
    l3 = L3Pair(pair)
    ders = da.derivations(l3.pair.algebra)
    if name.endswith("thirds-and-fifths"):
        ders = [go.derivation_sum(l3.pair.algebra, [(FACTORS[r % len(FACTORS)], d)]) for r, d in enumerate(ders)]
    return l3, ders


# the brackets of both rescaled sl3 pairs have D > 1 on entries that Maurer-Cartan elements reach
CASES = ("sl3-cartan rescaled", "sl3-borel-complement rescaled", "sl2", "heisenberg thirds-and-fifths")


def failed_checks(name: str) -> list:
    """The checks that fail on one case: the Jacobi sweep with Q o Q, both forms of the action axioms,
    one nonzero composite Q o psi_0 against the word-level oracle, the combination of the derivation
    basis against its tabulation, and the bridges and the gauge coincidence on two seeded instances
    at order 3 (one label); a check that raises fails."""
    l3, ders = _case(name)
    failed = []

    def check(label, run):
        try:
            if run():
                failed.append(label)
        except (ValueError, AssertionError):
            failed.append(label)

    def jacobi():
        fails, square = jacobi_walk(l3.structure(), range(1, 5), 5)
        return fails or not square.is_zero()

    check("jacobi", jacobi)
    action = da.ActionMaps(l3, ders)
    tg = theta_gamma(action)
    check("action", lambda: da.check_action_axioms(tg) or da.check_theta_gamma(tg))
    check("composite", lambda: compose(tg.Q, tg.psis[0], 3) != oracle.compose_by_words(tg.Q, tg.psis[0], 3))
    ctx = mcmod.MCContext(l3, order=3)
    rng = random.Random(0)
    check("basis combination", lambda: go.check_basis_action(ctx, action, rng))

    def gauge(instances=2):
        for _ in range(instances):
            xi = mcmod.random_mc_element(ctx, rng)
            b = mcmod.random_gauge_parameter(ctx, rng)
            if mcmod.bridge_defects(ctx, b) or not mcmod.check_gauge_coincidence(ctx, b, xi)[0]:
                return True
        return False

    check("gauge", gauge)
    return failed


def drop_kernel(monkeypatch):
    compile_table = graded.ShuffleInsertion._compile

    def dropped(kernel, tables):
        compiled = compile_table(kernel, tables)
        return compiled[:1] + ((1, 1),) + compiled[2:]

    monkeypatch.setattr(graded.ShuffleInsertion, "_compile", dropped)


def drop_layered_action(monkeypatch):
    layered_action = mcmod.layered_action

    def dropped(ctx, tables, coeffs):
        return layered_action(ctx, [{n: (1, entries) for n, (_, entries) in t.items()} for t in tables], coeffs)

    monkeypatch.setattr(mcmod, "layered_action", dropped)


def drop_brackets(monkeypatch):
    brackets = mcmod.MCContext.brackets.func
    dropped = cached_property(lambda ctx: {n: {key: (1, val) for key, (_, val) in t.items()} for n, t in brackets(ctx).items()})
    dropped.__set_name__(mcmod.MCContext, "brackets")
    monkeypatch.setattr(mcmod.MCContext, "brackets", dropped)


def drop_accumulator_denominator(monkeypatch):
    nonzero = graded.ShuffleInsertion.nonzero

    def over_one(kernel, acc, side):
        return nonzero(kernel, graded.Accumulator(acc), side)  # the same sums, over the default denominator 1

    monkeypatch.setattr(graded.ShuffleInsertion, "nonzero", over_one)


def drop_accumulator_growth(monkeypatch):
    unit = graded.Accumulator.unit

    def unscaled(acc, factor, den):
        held = dict(acc)
        out = unit(acc, factor, den)
        acc.update(held)  # the held sums as they were, now over the grown denominator
        return out

    monkeypatch.setattr(graded.Accumulator, "unit", unscaled)


DROPS = {"kernel": drop_kernel, "layered_action": drop_layered_action, "brackets": drop_brackets,
         "accumulator denominator": drop_accumulator_denominator, "accumulator growth": drop_accumulator_growth}


def test_every_check_passes_with_each_denominator_read():
    assert {name: failed_checks(name) for name in CASES} == {name: [] for name in CASES}


def test_no_accumulator_holds_a_fraction(monkeypatch):
    """Every sum the kernel holds after ``insertion_sums`` is an int, over a denominator above 1 on each case."""
    held = []
    insertion_sums = linfty.insertion_sums

    def recorded(*args):
        accs = insertion_sums(*args)
        held.extend(accs)
        return accs

    for module in (linfty, da):
        monkeypatch.setattr(module, "insertion_sums", recorded)
    for name in CASES:
        held.clear()
        assert failed_checks(name) == [], name
        assert all(type(v) is int for acc in held for v in acc.values()), name
        assert max(acc.den for acc in held) > 1, name


@pytest.mark.parametrize("reader", sorted(DROPS))
def test_a_reader_that_drops_the_denominator_is_caught_on_two_pairs(reader, monkeypatch):
    DROPS[reader](monkeypatch)
    found = {name: failed_checks(name) for name in CASES}
    caught = [name for name, failed in found.items() if failed]
    assert len(caught) >= 2, "escaped on %s" % [name for name in CASES if name not in caught]
