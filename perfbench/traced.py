"""Run one `l3pair check` verdict with per-module timers installed from outside.

    python3 perfbench/traced.py OUT.json {spans,counts} <l3pair arguments...>

The verdict's report goes to standard output and its exit status is the
verdict's, exactly as with the `l3pair` command.  The trace (self seconds
per span, exact counts, cache statistics) is written to OUT.json.

Two kinds of pass, because wrapping hot methods distorts the clock:

* ``spans``: timers only, around the public stage functions of each module,
  called at most a few thousand times per verdict.  Self time is a span's
  duration minus the spans nested inside it.
* ``counts``: the same timers plus call counters on the hot kernels (sparse
  table reads and writes, tuple normalization, rule instances, truncated
  polynomial products).  Its times are not reported.

Names a module imported with ``from .x import y`` are rebound everywhere the
package holds them, so callers see the wrappers.  A target the package no
longer defines is skipped with a note on standard error: its calls are zero.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import Counter
from time import perf_counter

PACKAGE = "l3pair"

# span name -> targets ("module:attribute path"); times are summed per name
SPANS = {
    "liepair.structure": ["liepair:L3Pair.structure"],
    "liepair.routes": [
        "liepair:L3Pair.bracket2",
        "liepair:L3Pair.bracket3",
        "liepair:L3Pair.bracket2_generated",
        "liepair:L3Pair.bracket3_generated",
    ],
    "linfty.jacobi_sweep": ["linfty:jacobi_sweep"],
    "linfty.check_codifferential": ["linfty:check_codifferential"],
    "linfty.compose": ["linfty:compose"],
    "deraction.derivations": ["deraction:derivations"],
    "deraction.action_maps": ["deraction:ActionMaps.__init__"],
    "deraction.check_action_axioms": ["deraction:check_action_axioms"],
    "deraction.check_theta_gamma": ["deraction:check_theta_gamma"],
    "deraction.extend_sum": ["deraction:extend_sum"],
    "mc.random_mc_element": ["mc:random_mc_element"],
    "mc.gauge_h": ["mc:gauge_h"],
    "mc.gauge_getzler": ["mc:gauge_getzler"],
    "mc.bridge_defects": ["mc:bridge_defects"],
}

# Q o Q inside check_codifferential is that span's own work, so a compose
# called directly from it is counted but opens no span of its own.
SPAN_NOT_DIRECTLY_UNDER = {"linfty.compose": "linfty.check_codifferential"}

# counter name -> targets; installed only in the counts pass
COUNTERS = {
    "linfty.jacobi_defect_basis": ["linfty:jacobi_defect_basis"],
    "graded.table_reads": [
        "graded:MultiTable.eval_basis",
        "graded:MultiTable.evaluate",
        "graded:MultiTable.eval_prepend",
        "graded:MultiTable.get_sorted",
        "graded:MultiTable.insert_items",
    ],
    "graded.normalize_tuple": ["graded:normalize_tuple"],
    "graded.table_writes": ["graded:MultiTable.set_value"],
    "deraction.rule_instances": [
        "deraction:bracket_rule_defect",
        "deraction:commutator_rule_defect",
    ],
    "mc.mc_extend": ["mc:mc_extend"],
    "scalars.truncpoly_mul": ["scalars:TruncatedPoly.__mul__"],
}

# lru caches read as deltas around the verdict (they are process-global)
CACHES = {
    "liepair.bracket_cache": ["liepair:L3Pair._bracket2_syms", "liepair:L3Pair._bracket3_syms"],
    "mc.ad_symbol_cache": ["mc:_ad_symbol_action"],
}


def _resolve(target):
    modname, path = target.split(":")
    obj = importlib.import_module("%s.%s" % (PACKAGE, modname))
    for part in path.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            print("trace: %s.%s not found, counted as zero" % (PACKAGE, target), file=sys.stderr)
            return None
    return obj


def _rebind(orig, wrapper):
    """Point every binding of ``orig`` in the package's modules and classes at ``wrapper``."""
    for modname, mod in list(sys.modules.items()):
        if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
            continue
        for key, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, key, wrapper)
            elif isinstance(val, type) and val.__module__.startswith(PACKAGE):
                for ckey, cval in list(vars(val).items()):
                    if cval is orig:
                        setattr(val, ckey, wrapper)


class Tracer:
    """Nested perf_counter spans with self time, plus named exact counts."""

    def __init__(self):
        self.stack = []  # open spans as [name, seconds spent in child spans]
        self.self_s = Counter()
        self.counts = Counter()
        self.arity_scopes = []  # per open sweep, the arities it enumerated
        self._seen_structures = []

    def span(self, name, fn, after=None):
        stack, self_s, counts = self.stack, self.self_s, self.counts
        skip_under = SPAN_NOT_DIRECTLY_UNDER.get(name)

        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            if skip_under is not None and stack and stack[-1][0] == skip_under:
                result = fn(*args, **kwargs)
            else:
                frame = [name, 0.0]
                stack.append(frame)
                t0 = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dur = perf_counter() - t0
                    stack.pop()
                    self_s[name] += dur - frame[1]
                    if stack:
                        stack[-1][1] += dur
            if after is not None:
                after(result)
            return result

        return wrapper

    def counter(self, name, fn, after=None):
        counts = self.counts
        key = name + ".calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            result = fn(*args, **kwargs)
            if after is not None:
                after(result)
            return result

        return wrapper

    # -- result hooks ----------------------------------------------------------

    def record_structure(self, st):
        if any(st is seen for seen in self._seen_structures):
            return
        self._seen_structures.append(st)
        self.counts["liepair.table_entries"] += sum(len(t.values) for t in st.brackets.values())

    def record_derivations(self, ders):
        self.counts["deraction.derivations.dim"] = max(self.counts["deraction.derivations.dim"], len(ders))

    def record_mc_extend(self, outcome):
        mc = importlib.import_module(PACKAGE + ".mc")
        if isinstance(outcome, mc.MCElement):
            self.counts["mc.mc_extend.useful"] += 1

    # -- arities skipped as structurally zero ---------------------------------

    def arity_scope(self, fn, requested_of):
        """Wrap a sweep so the arities it never enumerates count as skipped."""
        scopes, counts = self.arity_scopes, self.counts

        def wrapper(*args, **kwargs):
            requested, args = requested_of(args, kwargs)
            enumerated = set()
            scopes.append(enumerated)
            try:
                return fn(*args, **kwargs)
            finally:
                scopes.pop()
                counts["linfty.skipped_arities"] += len(set(requested) - enumerated)

        return wrapper

    def enumeration(self, fn):
        scopes = self.arity_scopes

        def wrapper(space, n, *args, **kwargs):
            if scopes:
                scopes[-1].add(n)
            return fn(space, n, *args, **kwargs)

        return wrapper


def _sweep_arities(args, kwargs):
    arities = list(args[1] if len(args) > 1 else kwargs.pop("arities"))
    return arities, (args[0], arities) + tuple(args[2:])


def _compose_arities(args, kwargs):
    max_arity = args[2] if len(args) > 2 else kwargs["max_arity"]
    return range(1, max_arity + 1), args


def _wrap(target, make):
    orig = _resolve(target)
    if orig is not None:
        _rebind(orig, make(orig))


def install(tracer: Tracer, counting: bool) -> None:
    after = {
        "liepair.structure": tracer.record_structure,
        "deraction.derivations": tracer.record_derivations,
        "mc.mc_extend": tracer.record_mc_extend,
    }
    for name, targets in SPANS.items():
        for target in targets:
            _wrap(target, lambda fn, name=name: tracer.span(name, fn, after.get(name)))
    linalg = importlib.import_module(PACKAGE + ".linalg")
    for attr, fn in sorted(vars(linalg).items()):
        if callable(fn) and not attr.startswith("_") and getattr(fn, "__module__", None) == linalg.__name__:
            _rebind(fn, tracer.span("linalg", fn))
    if not counting:
        return
    for name, targets in COUNTERS.items():
        for target in targets:
            _wrap(target, lambda fn, name=name: tracer.counter(name, fn, after.get(name)))
    _wrap("linfty:jacobi_sweep", lambda fn: tracer.arity_scope(fn, _sweep_arities))
    _wrap("linfty:compose", lambda fn: tracer.arity_scope(fn, _compose_arities))
    _wrap("linfty:iter_normalized_tuples", tracer.enumeration)


def cache_stats():
    out = {}
    for name, targets in CACHES.items():
        hits = misses = 0
        for target in targets:
            fn = _resolve(target)
            if fn is not None and hasattr(fn, "cache_info"):
                info = fn.cache_info()
                hits += info.hits
                misses += info.misses
        out[name] = (hits, misses)
    return out


def main(argv) -> int:
    out_path, mode, cli_args = argv[0], argv[1], argv[2:]
    if mode not in ("spans", "counts"):
        raise SystemExit("mode must be 'spans' or 'counts'")
    cli = importlib.import_module(PACKAGE + ".cli")
    tracer = Tracer()
    install(tracer, counting=mode == "counts")
    before = cache_stats()
    verdict = tracer.span("trace.verdict", cli.main)
    try:
        status = verdict(cli_args)
    finally:
        after = cache_stats()
        for name, (hits, misses) in after.items():
            tracer.counts[name + ".hits"] = hits - before[name][0]
            tracer.counts[name + ".misses"] = misses - before[name][1]
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"mode": mode, "self_s": dict(tracer.self_s), "counts": dict(tracer.counts)}, fh, sort_keys=True)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
