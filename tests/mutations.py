"""The registry of deliberate defects: each row patches one function of ``src`` and names
the checks that must catch it and the pairs where the patch really is a defect.

A patch can give another valid structure rather than a defect: doubling aff1's
only curvature entry gives maps that still define an action, so aff1 is not
named for the curvature row.  ``apply(row, monkeypatch)`` installs a row's
patch for the length of one test.
"""

from dataclasses import dataclass

from l3pair import deraction as da

ACTION_PAIRS = ("sl2", "heisenberg", "aff1", "abelian:3", "sl3-cartan")


@dataclass(frozen=True)
class Mutation:
    name: str
    target: tuple  # (owner, attribute) the patch replaces
    patch: object  # original -> replacement
    entries: tuple  # the `check action` report entries that must fail
    pairs: tuple  # the pairs where the patch is a defect


def _kappa_doubled(kappa):
    return lambda l3, proj: {i: 2 * c for i, c in kappa(l3, proj).items()}


def _act1_pr_b_negated(act1_symbol):
    """(delta |> X) with its pr_B delta(X(J)) term negated: the full map less twice that term,
    the term being the map evaluated with pr_A delta set to zero."""

    def mutated(l3, proj, sym):
        full, pr_b = act1_symbol(l3, proj, sym), act1_symbol(l3, ({nm: {} for nm in proj[0]}, proj[1]), sym)
        out = {i: full.get(i, 0) - 2 * pr_b.get(i, 0) for i in full.keys() | pr_b.keys()}
        return {i: c for i, c in out.items() if c}

    return mutated


def _act2_second_sum_dropped(act2_symbols):
    """delta |> (X, Y) with the second of its two ``L3Pair._contract`` shuffle sums skipped."""

    def mutated(l3, proj, sx, sy):
        calls, contract = [], l3._contract

        def first_only(*args):
            calls.append(args)
            if len(calls) == 1:
                contract(*args)

        l3._contract = first_only  # the instance attribute shadows the method for this call only
        try:
            return act2_symbols(l3, proj, sx, sy)
        finally:
            del l3._contract

    return mutated


def _transport_sign_dropped(transport_sign):
    return lambda n: 1


def _commutator_coordinate_negated(commutator_coords):
    """[der_r, der_s] with the first nonzero coordinate of the first nonzero commutator negated."""

    def mutated(self):
        coords = dict(commutator_coords.func(self))
        for pair, vec in coords.items():
            if any(vec):
                u = next(i for i, c in enumerate(vec) if c)
                coords[pair] = vec[:u] + [-vec[u]] + vec[u + 1:]
                break
        return coords

    return property(mutated)


# the three formulations of the action; the direct axioms never read the shift transport
ACTION_ENTRIES = ("action-axioms", "action-coalgebra-form", "extended-codifferential")

REGISTRY = (
    # heisenberg has no curvature, and aff1's doubled curvature gives another action
    Mutation("kappa x2", (da, "_kappa"), _kappa_doubled, ACTION_ENTRIES, ("sl2", "abelian:3", "sl3-cartan")),
    Mutation("act1 pr_B term negated", (da, "act1_symbol"), _act1_pr_b_negated, ACTION_ENTRIES, ACTION_PAIRS),
    # on aff1 pr_A delta(b) = 0 for both derivations, so mu2 is zero and has no sum to drop
    Mutation("act2 second shuffle sum dropped", (da, "act2_symbols"), _act2_second_sum_dropped, ACTION_ENTRIES,
             ("sl2", "heisenberg", "abelian:3", "sl3-cartan")),
    Mutation("transport sign dropped", (da, "transport_sign"), _transport_sign_dropped, ACTION_ENTRIES[1:], ACTION_PAIRS),
    Mutation("commutator coordinate negated", (da.ActionMaps, "commutator_coords"), _commutator_coordinate_negated,
             ACTION_ENTRIES, ACTION_PAIRS),
)


def apply(row: Mutation, monkeypatch) -> None:
    """Install the row's patch for the rest of the test that owns ``monkeypatch``."""
    owner, attribute = row.target
    monkeypatch.setattr(owner, attribute, row.patch(getattr(owner, attribute)))
