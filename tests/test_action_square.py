"""The square of the extended codifferential on Der(L) (+) forms, word class by word class.

``ExtendedStructure`` reads its parts where they are built: the curvature
and theta components of each transported derivation psi_r and the form
codifferential Q from ``ThetaGamma``, beside the bracket of Der(L).  The test
oracle copies them into one codifferential over the sum basis
(``gauge_oracle.materialized``).  Its square, read by the number of
derivation letters in a word, is four things the action suite composes
anyway: Q o Q (no letter), [Q, psi_r] (one), psi_[r,s] - [psi_r, psi_s] (two)
and the Jacobi identity of Der(L) (three).  Composing the materialized
codifferential with itself is the reference here: each class is compared
with the composite computed on its own, key for key and value for value, on
broken actions and on the two non-catalog pairs; and the records that
``check action`` formats from those composites (``extended_square``) are the
reference's, in order, at every cut-off.  ``check action`` itself transports
the brackets to Q once and copies no psi or Q entry into the sum basis.
"""

import pytest

import gauge_oracle as go
from shuffle_oracle import combine, commutator
from helpers import RESCALED, get_l3, report_pair, run_report_text, scale_pair, theta_gamma
from l3pair import commands, linfty
from l3pair import deraction as da
from l3pair.liepair import L3Pair
from l3pair.linfty import compose, square_defects
from l3pair.vectors import GradedElement
from test_golden_reports import BROKEN, broken_action

ARITIES = range(1, 7)


def _cases():
    """(label, ThetaGamma factory) of every broken action of ``BROKEN``, and of sl3 rescaled and
    sp4-Cartan, clean and with the first mu1 and mu2 entry of derivation 0 doubled."""
    out = []
    actions = [(pair, get_l3(pair), breaks) for pair, breaks in sorted(BROKEN.items())]
    for name, pair in ((RESCALED, report_pair(RESCALED)), ("sp4-cartan", scale_pair("sp4-cartan"))):
        l3 = L3Pair(pair)
        maps = da.ActionMaps(l3, da.derivations(l3.pair.algebra)).maps[0]
        actions.append((name, l3, [None] + [(kind, 0, min(maps[n].values), 2) for kind, n in (("mu1", 1), ("mu2", 2))]))
    for pair, l3, breaks in actions:
        action = da.ActionMaps(l3, da.derivations(l3.pair.algebra))
        for b in breaks:
            label = "%s %s der%d %s x%d" % ((pair,) + b) if b else pair + " clean"
            out.append((label, lambda a=action, b=b: theta_gamma(broken_action(a, *b) if b else a)))
    return out


CASES = _cases()


def _prefixed(defects, letters, max_arity: int) -> dict:
    """{(extended arity, letters + key): coordinates} of a coderivation's entries, up to max_arity."""
    out = {}
    for n, table in defects.components.items():
        for key, val in table.values.items():
            if n + len(letters) <= max_arity:
                out[(n + len(letters), letters + key)] = val.coords
    return out


@pytest.mark.parametrize("label, make", CASES, ids=[label for label, _ in CASES])
def test_extended_square_is_the_theta_gamma_composites_and_the_form_square(label, make):
    tg = make()
    ext = da.ExtendedStructure(tg)
    der = ext.der_names
    psis, comm = tg.psis, tg.action.commutator_coords
    chains = [commutator(tg.Q, psi, 4) for psi in psis]
    brackets = {
        (r, s): combine([(c, psis[u]) for u, c in enumerate(coords)] + [(-1, commutator(psis[r], psis[s], 3))])
        for (r, s), coords in comm.items()
    }
    E = go.materialized(ext)
    for k in ARITIES:
        reference = square_defects(compose(E, E, k).items(), limit=10**6)
        square = compose(tg.Q, tg.Q, k)
        by_letters = {}
        for n, key, val in reference:
            by_letters.setdefault(sum(nm in der for nm in key), {})[(n, key)] = val.coords
        one = {}
        for r, chain in enumerate(chains):
            one.update(_prefixed(chain, (der[r],), k))
        two = {}
        for (r, s), defect in brackets.items():
            two.update(_prefixed(defect, (der[r], der[s]), k))
        assert by_letters.get(0, {}) == _prefixed(square, (), k), (label, k)
        assert by_letters.get(1, {}) == one, (label, k)
        assert by_letters.get(2, {}) == two, (label, k)
        assert set(by_letters) <= {0, 1, 2, 3}, (label, k)
        assert da.extended_square(ext, square, k, limit=10**6) == reference, (label, k)
        assert da.extended_square(ext, square, k) == reference[:16], (label, k)


def test_check_action_transports_q_once_and_copies_no_entry_into_the_sum_basis(tmp_path, monkeypatch):
    """``check action --max-arity 4`` on sl3-cartan transports the brackets to Q once and makes at
    most 2,500 elements (3,537 when the extension copied every psi and Q entry into the sum basis
    and the action suite transported Q a second time); over the sum basis it makes the entries of
    the derivation bracket and nothing else, since the square of a clean action has no word."""
    l3 = get_l3("sl3-cartan")
    bracket = [c for c in da.ActionMaps(l3, da.derivations(l3.pair.algebra)).commutator_coords.values() if any(c)]
    monkeypatch.chdir(tmp_path)
    transports, spaces = [], []
    transport, init = linfty.brackets_to_codifferential, GradedElement.__init__
    for module in (linfty, commands, da):  # wherever the transport is bound by name
        if hasattr(module, "brackets_to_codifferential"):
            monkeypatch.setattr(module, "brackets_to_codifferential", lambda L: transports.append(L) or transport(L))

    def counted(self, space, coords):
        spaces.append(space)
        init(self, space, coords)

    monkeypatch.setattr(GradedElement, "__init__", counted)
    code, _, _ = run_report_text("sl3-cartan", ["check", "action", "--max-arity", "4"])
    assert code == 0 and len(transports) == 1
    assert len(spaces) <= 2500
    assert sum("der0" in space for space in spaces) == len(bracket)
