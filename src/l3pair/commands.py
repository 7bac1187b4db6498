"""The ``check`` subcommand: its suites and reports.

Data goes to standard output (or --json PATH) as canonical JSON: sorted keys,
rationals as "p/q" strings, and no wall-clock content, so identical inputs
and seeds produce byte-identical bytes.  Diagnostics and timing go to
standard error.  The exit status is 0 exactly when every check passed and 1
when one failed; a pair whose bracket fails Jacobi fails every kind of check
on its ``lie-jacobi`` entry alone.  Unreadable or malformed input and an
unwritable --json PATH exit 2 with one ``error:`` line.
"""

from __future__ import annotations

import sys
import time

from .cli import _emit, _read_pair
from .graded import ShuffleInsertion
from .lie import validate_lie
from .liepair import L3Pair
from .linfty import Coderivation, jacobi_square, square_defects
from .vectors import GradedElement

GAUGE_INSTANCES = 5  # seeded (xi, b) instances of each gauge check


def _defect_json(obj):
    if isinstance(obj, GradedElement):
        return obj.to_json()
    if isinstance(obj, Coderivation):
        out = {}
        for k in sorted(obj.components):
            table = obj.components[k]
            out[str(k)] = {"^".join(key): val.to_json() for key, val in sorted(table.values.items())}
        return out
    return obj if isinstance(obj, dict) else str(obj)  # a dict is a report's JSON already


def _check_entry(name: str, defects) -> dict:
    recs = [
        {"identity": d["identity"], "inputs": list(d["inputs"]), "defect": _defect_json(d["defect"])}
        for d in defects
    ]
    return {"name": name, "status": "pass" if not recs else "fail", "defects": recs}


def _square_entry(name: str, words) -> dict:
    """The check entry of the (arity, key, defect) words of a square."""
    return _check_entry(name, [{"identity": "square-arity-%d" % k, "inputs": list(key), "defect": val} for k, key, val in words])


def _jacobi_checks(l3: L3Pair, walk, joins: int, notes: list) -> list:
    """The jacobi suite's checks, given the (Jacobi failures, Q o Q) ``walk`` of ``jacobi_square`` and the
    joins it made; those joins and what the route check compared go to ``notes`` for stderr."""
    checks = []
    st = l3.structure()
    fails, square = walk
    jacobi = [{"identity": "higher-jacobi-n%d" % n, "inputs": list(key), "defect": val} for n, key, val in fails]
    checks.append(_check_entry("higher-jacobi", jacobi))
    checks.append(_square_entry("codifferential-square", square_defects(square.items())))
    notes.append("jacobi walk: %d joins, read by higher-jacobi on V and codifferential-square on V[1]" % joins)
    routes, pairs, triples = l3.route_defects()
    notes.append("bracket-routes: compared %d pairs and %d triples" % (pairs, triples))
    counts = [len(st.brackets[k].values) if k in st.brackets else 0 for k in (1, 2, 3)]
    notes.append("brackets: d %d, l2 %d, l3 %d entries" % tuple(counts))
    if not triples:  # the ternary half compared nothing: make the vacuous pass visible
        notes.append("l3: 0 entries (beta = 0)")
    checks.append(_check_entry("bracket-routes", routes))
    return checks


def _action_checks(l3: L3Pair, max_arity: int, square, joins: int, notes: list, kernel) -> list:
    """The action suite's checks, given the verdict's Q o Q, the joins of the walk that made it and the kernel;
    how many derivations it acted by, the joins of its own walk and the sums each axiom swept, the arity the
    extended square was checked to and the composites it was formatted from go to ``notes`` for stderr."""
    from . import deraction as da

    ders = da.derivations(l3.pair.algebra)
    action = da.ActionMaps(l3, ders)
    tg, before = da.ThetaGamma(action, kernel), kernel.joins
    checks = [_check_entry("action-axioms", da.check_action_axioms(tg))]
    checks.append(_check_entry("action-coalgebra-form", da.check_theta_gamma(tg)))
    ext = da.ExtendedStructure(tg)
    checks.append(_square_entry("extended-codifferential", da.extended_square(ext, square, max_arity)))
    structural = [{"identity": kind, "inputs": list(key), "defect": "structural"} for kind, key in ext.violations()]
    checks.append(_check_entry("extended-structure", structural))
    notes.append("action: %d derivations; extended square checked to arity %d" % (len(ders), max_arity))
    swept = [sum(n for lab, sums in tg.walk.items() if len(lab) == w for _, _, n in sums) for w in (1, 2)]
    notes.append("action walk: %d joins, read by action-axioms on V and action-coalgebra-form on V[1]; %s swept "
                 "%d (word, output) sums, %s %d" % (kernel.joins - before, da.BRACKET_RULE, swept[0], da.COMMUTATOR_RULE, swept[1]))
    notes.append("extended square: reads the Q o Q of a walk of %d joins" % joins)
    composites = "%d [Q, psi] and %d psi-bracket composites" % (len(ders), len(action.commutator_coords))
    notes.append("action square: %s; extended words above arity %d are zero by construction" % (composites, da.SQUARE_ARITY))
    notes.append("extended-structure: holds by construction of the parts it reads, so its pass is vacuous")
    return checks


def _gauge_checks(l3: L3Pair, order: int, seed: int, notes: list) -> list:
    """The gauge suite's checks; how many instances had xi = 0 or b = 0, how many keys the bridge
    identities compared, that the curvature re-check is vacuous where there are no degree-2 forms,
    and dim H^1 = dim ker d_1 - rank d_0 (0: every instance is gauge-trivial) are appended to
    ``notes`` for stderr."""
    import random

    from . import mc as mcmod
    from .deraction import differential_matrix
    from .linalg import rank

    ctx = mcmod.MCContext(l3, order=order)
    rng = random.Random(seed)
    checks = []
    bridge = []
    mismatches = []
    closed_form = []
    zero_xi = zero_b = compared = 0
    for i in range(GAUGE_INSTANCES):
        xi = mcmod.random_mc_element(ctx, rng)
        b = mcmod.random_gauge_parameter(ctx, rng)
        zero_xi += not xi.value[1]
        zero_b += not b[1]
        tables = mcmod.ad_b_action(ctx, b), mcmod.contracted_brackets(ctx, b)
        if i == 0:
            bridge = [
                {"identity": kind, "inputs": list(key), "defect": "nonzero"}
                for kind, key in mcmod.bridge_defects(ctx, b, tables)
            ]
            compared = mcmod.bridge_keys(ctx, b)
        try:
            h, getzler = mcmod.gauge_actions(ctx, b, xi, tables)
        except ValueError:  # a series whose result fails the Maurer-Cartan re-check is a failing verdict
            mismatches.append({"identity": "gauge-maurer-cartan", "inputs": ["instance%d" % i], "defect": "nonzero"})
            continue
        diff = mcmod._combine(order, [(1, h.value), (-1, getzler.value)])
        if diff[1]:
            mismatches.append({"identity": "gauge-coincidence", "inputs": ["instance%d" % i], "defect": mcmod.layered_json(ctx, diff)})
        if order == 1:  # the closed forms read the same two series
            db = mcmod._Twist(ctx, ctx.brackets, (1, {}))([b])  # d b from the stored d table, untwisted
            if getzler.value != mcmod._combine(order, [(1, xi.value), (-1, db)]):
                closed_form.append({"identity": "order1-form-gauge", "inputs": ["instance%d" % i], "defect": "nonzero"})
            if h.value != mcmod._combine(order, [(1, xi.value), (-1, mcmod.action_curvature(ctx, tables[0]))]):
                closed_form.append({"identity": "order1-derivation-gauge", "inputs": ["instance%d" % i], "defect": "nonzero"})
    notes.append("gauge: %d instances, xi = 0 in %d, b = 0 in %d; bridges compared %d keys" % (GAUGE_INSTANCES, zero_xi, zero_b, compared))
    if not ctx.degree1_matrix[1]:  # a curvature is a degree-2 form: make the vacuous re-check visible
        notes.append("gauge: no degree-2 forms, so the Maurer-Cartan re-check is vacuous")
    h1 = len(ctx.closed_kernel) - rank(differential_matrix(l3, 0)[2])
    notes.append("H^1 has dimension %d" % h1 if h1 else "H^1 = 0: every instance is gauge-trivial")
    checks.append(_check_entry("gauge-bridges", bridge))
    checks.append(_check_entry("gauge-coincidence", mismatches))
    if order == 1:
        checks.append(_check_entry("gauge-order1-closed-forms", closed_form))
    return checks


def cmd_check(args) -> int:
    t0 = time.time()
    pair = _read_pair(args, "check", degree_one=args.kind in ("gauge", "all"))
    if pair is None:
        return 2
    bad = validate_lie(pair.algebra)
    checks, notes = [], []
    if bad or args.kind in ("jacobi", "all"):
        checks.append(_check_entry("lie-jacobi", [{"identity": "lie-jacobi", "inputs": list(t), "defect": "nonzero"} for t in bad]))
    if not bad:  # every suite presumes a Lie bracket; without one the failing lie-jacobi is the report
        l3 = L3Pair(pair)
        if args.kind != "gauge":  # one walk and one kernel per verdict: each pair of tables is compiled once
            kernel = ShuffleInsertion(l3.basis)
            jacobi = range(1, args.max_arity) if args.kind != "action" else ()
            walk = jacobi_square(kernel, l3.structure(), jacobi, args.max_arity)
            joins = kernel.joins
        if args.kind in ("jacobi", "all"):
            checks.extend(_jacobi_checks(l3, walk, joins, notes))
            if not jacobi:  # --max-arity 1 leaves no arity to sweep: make the vacuous pass visible
                notes.append("higher-jacobi: --max-arity 1 sweeps no arity, so its pass is vacuous")
        if args.kind in ("action", "all"):
            checks.extend(_action_checks(l3, args.max_arity, walk[1], joins, notes, kernel))
        if args.kind in ("gauge", "all"):
            checks.extend(_gauge_checks(l3, args.order, args.seed, notes))
    status = "pass" if all(c["status"] == "pass" for c in checks) else "fail"
    report = {
        "command": "check %s" % args.kind,
        "input": {"path": args.pair_file, "digest": pair.digest()},
        "parameters": {"max_arity": args.max_arity, "order": args.order, "seed": args.seed},
        "checks": checks,
        "status": status,
    }
    if not _emit(report, args.json):
        return 2
    print("check %s: %s (%.2fs)" % (args.kind, status, time.time() - t0), file=sys.stderr)
    for line in notes:
        print(line, file=sys.stderr)
    return 0 if status == "pass" else 1
