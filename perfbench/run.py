"""Benchmark of `l3pair check` verdicts, as a user runs them.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--quick]

Run from anywhere; the checkout root is the parent of this directory and the
program is imported from its ``src/``.  One closed-loop client runs one
`l3pair check` process at a time for S seconds (the verdict in flight when
time is up finishes and counts).  Every verdict must exit 0 and print a
report whose SHA-256 matches ``expected.json``; each gets its own
PYTHONHASHSEED drawn from the seed.  The last line of standard output is the
JSON result: end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1`` (see README.md).  Times are wall times scaled by the host's
speed, sampled on the same CPU while each process runs.  ``--quick`` runs
the same code paths on the small catalog pairs, for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ".perfbench-work"  # relative to ROOT; reports name the pair file by this path
ENTRY = "import sys; from l3pair.cli import main; sys.exit(main())"  # the `l3pair` console script
SETUP_REPEATS = 7
VERDICT_TIMEOUT_S = 120
GAUGE_SEEDS = tuple(range(8))  # CLI seeds of gauge verdicts; each run cycles a seeded shuffle
QUICK_PAIR = "sl2"  # --quick runs every workload's verdict on this pair
# Other tenants slow a shared host by up to 1.6x for minutes at a time.  The
# benchmark and its processes share one CPU, and while a process runs a short
# loop is timed on that CPU every SAMPLE_PERIOD_S; its wall time is scaled by
# SAMPLE_REF_S over the median loop time, so times read as seconds on a host
# where that loop, sharing the CPU with a busy process, takes SAMPLE_REF_S.
SAMPLE_ITERS = 200_000
SAMPLE_PERIOD_S = 0.25
SAMPLE_REF_S = 0.016


class Workload(NamedTuple):
    pair: str
    kind: str
    args: tuple
    seeded: bool = False  # verdicts take --seed from GAUGE_SEEDS

    def argv(self, quick: bool, cli_seed: int | None) -> list:
        pair = QUICK_PAIR if quick else self.pair
        out = ["check", self.kind, "%s/%s.json" % (WORK, pair), *self.args]
        if self.seeded:
            out += ["--seed", str(cli_seed)]
        return out


WORKLOADS = {
    "jacobi-cartan": Workload("sl3-cartan", "jacobi", ()),
    "action-cartan": Workload("sl3-cartan", "action", ("--max-arity", "4")),
    "gauge-cartan": Workload("sl3-cartan", "gauge", ("--order", "4"), seeded=True),
}


def verdict_plan(workload: Workload, seed: int, quick: bool):
    """Endless (argv, PYTHONHASHSEED) sequence; the same seed gives the same sequence."""
    rng = random.Random(seed)
    pool = list(GAUGE_SEEDS)
    rng.shuffle(pool)
    i = 0
    while True:
        yield workload.argv(quick, pool[i % len(pool)]), rng.randrange(2**32)
        i += 1


def host_sample_s() -> float:
    """Wall seconds of a fixed pure-Python loop on the CPU the running process shares."""
    t0 = time.perf_counter()
    total = 0
    for i in range(SAMPLE_ITERS):
        total += i & 7
    return time.perf_counter() - t0


class Outcome(NamedTuple):
    argv: list  # the l3pair arguments
    wall_s: float
    maxrss_kib: int
    ok: bool
    traced: bool = False
    host_factor: float = 1.0

    @property
    def scaled_s(self) -> float:
        return self.wall_s * self.host_factor


def launch(prefix: list, argv: list, hashseed: int, out_path: Path) -> Outcome:
    """Run ``prefix + argv`` to exit: wall time from launch to reaping, peak RSS, host speed."""
    cmd = prefix + argv
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=str(hashseed))
    err_path = out_path.with_suffix(".err")
    reaped = {}
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out, stderr=err)

        def reap():
            _, status, usage = os.wait4(proc.pid, 0)
            reaped["t1"] = time.perf_counter()
            reaped["status"] = status
            reaped["usage"] = usage

        waiter = threading.Thread(target=reap)
        waiter.start()
        samples = []
        while waiter.is_alive():
            samples.append(host_sample_s())
            waiter.join(SAMPLE_PERIOD_S)
            if waiter.is_alive() and time.perf_counter() - t0 > VERDICT_TIMEOUT_S:
                proc.kill()
                waiter.join()
    proc.returncode = os.waitstatus_to_exitcode(reaped["status"])
    if proc.returncode != 0:
        tail = err_path.read_text(encoding="utf-8", errors="replace")[-2000:]
        print("exit %d from l3pair %s\n%s" % (proc.returncode, " ".join(argv), tail), file=sys.stderr)
    factor = SAMPLE_REF_S / statistics.median(samples)
    return Outcome(argv, reaped["t1"] - t0, reaped["usage"].ru_maxrss, proc.returncode == 0, host_factor=factor)


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def checked(outcome: Outcome, out_path: Path, expected: str | None) -> Outcome:
    if outcome.ok and digest(out_path) != expected:
        print("report mismatch for %s" % " ".join(outcome.argv), file=sys.stderr)
        return outcome._replace(ok=False)
    return outcome


def run_setup(pair: str, expected: dict) -> list:
    """`l3pair example PAIR` several times; the output is the verdicts' input file."""
    out_path = ROOT / WORK / ("%s.json" % pair)
    runs = []
    for i in range(SETUP_REPEATS):
        outcome = launch([sys.executable, "-c", ENTRY], ["example", pair], i, out_path)
        runs.append(checked(outcome, out_path, expected["example"].get(pair)))
    return runs


def run_verdict(argv: list, hashseed: int, expected: dict, traced: tuple = ()) -> Outcome:
    out_path = ROOT / WORK / "verdict.out"
    script = [str(BENCH / "traced.py"), *traced] if traced else ["-c", ENTRY]
    outcome = launch([sys.executable, *script], argv, hashseed, out_path)
    outcome = outcome._replace(traced=bool(traced))
    return checked(outcome, out_path, expected["verdict"].get(" ".join(argv)))


def exact_count_mismatches(traces: list) -> list:
    """Counts every pass recorded must agree exactly across passes."""
    bad = []
    for a, b in zip(traces, traces[1:]):
        for key in sorted(set(a["counts"]) & set(b["counts"])):
            if a["counts"][key] != b["counts"][key]:
                bad.append("%s: %s != %s" % (key, a["counts"][key], b["counts"][key]))
    return bad


def ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_value(name: str, spans: dict, counts: dict) -> float:
    """One per-layer metric from the spans pass (times, caches) and a counts pass."""
    if name.endswith(".self_s"):
        return spans["self_s"].get(name[: -len(".self_s")], 0.0) * spans["host_factor"]
    if name.endswith(".hit_frac"):
        base = name[: -len(".hit_frac")]
        hits = spans["counts"].get(base + ".hits", 0)
        return ratio(hits, hits + spans["counts"].get(base + ".misses", 0))
    if name == "mc.mc_extend.useful_frac":
        return ratio(counts["counts"].get("mc.mc_extend.useful", 0), counts["counts"].get("mc.mc_extend.calls", 0))
    if name == "deraction.rule_instances":
        return counts["counts"].get("deraction.rule_instances.calls", 0)
    return counts["counts"].get(name, 0)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="run every verdict on the sl2 pair, for the benchmark's tests")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "l3pair" / "cli.py").is_file():
        print("error: no l3pair sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))
    workload = WORKLOADS[args.workload]
    (ROOT / WORK).mkdir(exist_ok=True)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # children inherit the one CPU
    sys.setswitchinterval(0.001)  # the reaping thread takes the clock reading promptly

    pair = QUICK_PAIR if args.quick else workload.pair
    setup_runs = run_setup(pair, expected)
    if not all(r.ok for r in setup_runs):
        print("error: `l3pair example %s` failed or changed its output" % pair, file=sys.stderr)
        return 1
    setup_s = statistics.median(r.scaled_s for r in setup_runs)

    plan = verdict_plan(workload, args.seed, args.quick)
    verdicts = []
    start = time.perf_counter()
    while not verdicts or time.perf_counter() - start < args.seconds:
        verdicts.append(run_verdict(*next(plan), expected))
    untraced = list(verdicts)
    problems = []

    if args.trace == 0:
        metrics = {
            "verdict_s.p50": statistics.median(v.scaled_s for v in untraced),
            "setup_s": setup_s,
            "peak_rss_mb": max(v.maxrss_kib for v in untraced) * 1024 / 1e6,
        }
        specs = spec["end_to_end"]
    else:
        traced_argv = untraced[0].argv
        traces = []
        for mode in ("spans", "counts", "counts"):
            trace_path = ROOT / WORK / "trace.json"
            trace_path.unlink(missing_ok=True)
            outcome = run_verdict(traced_argv, next(plan)[1], expected, traced=(str(trace_path), mode))
            verdicts.append(outcome)
            trace = json.loads(trace_path.read_text(encoding="utf-8"))
            traces.append(trace | {"scaled_s": outcome.scaled_s, "host_factor": outcome.host_factor})
        problems = exact_count_mismatches(traces)
        spans, counts = traces[0], traces[1]
        same_argv = [v.scaled_s for v in untraced if v.argv == traced_argv]
        metrics = {}
        for m in spec["per_layer"]:
            if m["name"] == "trace.overhead_frac":
                metrics[m["name"]] = spans["scaled_s"] / statistics.median(same_argv) - 1
            elif m["name"] == "failed_verdicts.frac":
                metrics[m["name"]] = sum(not v.ok for v in verdicts) / len(verdicts)
            else:
                metrics[m["name"]] = layer_value(m["name"], spans, counts)
        specs = spec["per_layer"]

    for p in problems:
        print("exact count differs between passes: %s" % p, file=sys.stderr)
    failed = sum(not v.ok for v in verdicts)
    print(
        "%s: %d verdicts, scaled median %.3f s, setup %.3f s, %d failed; wall/scaled %s"
        % (args.workload, len(untraced), statistics.median(v.scaled_s for v in untraced), setup_s, failed,
           " ".join("%.2f/%.2f" % (v.wall_s, v.scaled_s) for v in verdicts)),
        file=sys.stderr,
    )
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(verdicts),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in specs},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
