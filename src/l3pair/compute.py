"""The ``compute`` subcommand (derivations, cohomology, mc-extend); its reports follow ``commands``."""

from __future__ import annotations

import sys

from .cli import _emit, _read_pair
from .lie import validate_lie
from .liepair import L3Pair


def cmd_compute(args) -> int:
    pair = _read_pair(args, "compute with" if args.kind != "derivations" else None, degree_one=args.kind == "mc-extend")
    if pair is None:
        return 2
    bad = validate_lie(pair.algebra)
    if bad:
        print("error: input fails the Jacobi identity on %s" % (bad,), file=sys.stderr)
        return 2
    from . import deraction as da

    if args.kind == "derivations":
        ders = da.derivations(pair.algebra)
        result = {
            "command": "compute derivations",
            "input": {"path": args.pair_file, "digest": pair.digest()},
            "dimension": len(ders),
            "basis": [d.to_json() for d in ders],
        }
    elif args.kind == "cohomology":
        l3 = L3Pair(pair)
        model = da.CohomologyModel(l3)
        ders = da.derivations(pair.algebra)
        preserving = [d for d in ders if da.kappa(l3, d).is_zero()]
        bracket_table = {}
        for k1 in model.degrees:
            for i1 in range(model.dims[k1]):
                for k2 in model.degrees:
                    for i2 in range(model.dims[k2]):
                        if k1 + k2 not in model.dims:
                            continue
                        coords = model.induced_bracket(k1, i1, k2, i2)
                        if any(coords):
                            key = "[%d.%d,%d.%d]" % (k1, i1, k2, i2)
                            bracket_table[key] = [str(c) for c in coords]
        action_table = {}
        for idx, d in enumerate(preserving):
            ops = da.induced_action(l3, model, d)
            action_table["der%d" % idx] = {
                str(k): [[str(c) for c in col] for col in cols] for k, cols in ops.items()
            }
        result = {
            "command": "compute cohomology",
            "input": {"path": args.pair_file, "digest": pair.digest()},
            "dimensions": {str(k): model.dims[k] for k in model.degrees},
            "representatives": model.to_json()["representatives"],
            "induced_bracket": bracket_table,
            "preserving_derivations": [d.to_json() for d in preserving],
            "induced_action": action_table,
        }
    else:  # mc-extend
        import random

        from . import mc as mcmod

        l3 = L3Pair(pair)
        ctx = mcmod.MCContext(l3, order=args.order)
        rng = random.Random(args.seed)
        directions = mcmod.closed_directions(ctx)
        seed_elem = mcmod.closed_seed(ctx, ((d, rng.randint(-3, 3)) for d in directions))
        outcome = mcmod.mc_extend(ctx, seed_elem)
        result = {
            "command": "compute mc-extend",
            "input": {"path": args.pair_file, "digest": pair.digest()},
            "parameters": {"order": args.order, "seed": args.seed},
            "seed_element": seed_elem.to_json(),
        }
        if isinstance(outcome, mcmod.MCElement):
            result.update(status="extended", element=mcmod.layered_json(ctx, outcome.value))
        elif outcome.decided:
            result.update(status="obstructed", obstruction_order=outcome.order, obstruction=outcome.element.to_json())
        else:  # an order-3 or later system failed for one choice of the lower terms (``mc.Obstruction``)
            result.update(status="undecided", undecided_order=outcome.order)
    return 0 if _emit(result, args.json) else 2
