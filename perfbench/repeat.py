"""Repeat the benchmark over several seeds and summarise every metric.

    python3 perfbench/repeat.py [--runs 10] [--trace-runs 0] [--workloads a,b] [--seed0 1000] [--out FILE]

For each workload, makes ``--runs`` untraced runs and ``--trace-runs`` traced
runs, each with its own ``--seed``, at the ``run_seconds`` of BENCHMARK.json.
Prints, per metric, the median, the quartiles (``statistics.quantiles(n=4)``)
and the quartile spread as a share of the median, against the metric's
bound.  With ``--out`` it also writes that summary as JSON, with the Python
version, the CPU count, the git commit (when there is one) and a host-noise
sample: the spread of an identical CPU-bound loop timed before the runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import run

NOISE_LOOPS = 10


def cpu_loop_s() -> float:
    t0 = time.perf_counter()
    total = 0
    for i in range(6_000_000):
        total += i & 7
    return time.perf_counter() - t0


def host_noise() -> dict:
    times = sorted(cpu_loop_s() for _ in range(NOISE_LOOPS))
    return {"cpu_loop_s": {"min": times[0], "median": statistics.median(times), "max": times[-1], "n": len(times)}}


def summary(values: list) -> dict:
    med = statistics.median(values)
    out = {"median": med, "n": len(values), "min": min(values), "max": max(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else 0.0)
    return out


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(run.BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, check=False)
    result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else None
    if result is None or not result["correct"]:
        raise SystemExit("run failed: %s\n%s" % (" ".join(cmd), proc.stderr[-3000:]))
    result["run_s"] = time.perf_counter() - t0
    print("  seed %d: %s" % (seed, proc.stderr.strip().splitlines()[-1]), flush=True)
    return result


def git_sha() -> str | None:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT, capture_output=True, text=True, check=False)
    return proc.stdout.strip() if proc.returncode == 0 else None


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace-runs", type=int, default=0)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seed0", type=int, default=1000)
    ap.add_argument("--out")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "run_seconds": spec["run_seconds"],
        "host_noise": host_noise(),
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        entry = report["workloads"][workload] = {}
        for trace, count, key in ((0, args.runs, "end_to_end"), (1, args.trace_runs, "per_layer")):
            results = [one_run(workload, args.seed0 + i, spec["run_seconds"], trace) for i in range(count)]
            if not results:
                continue
            entry[key] = {name: summary([r["metrics"][name]["value"] for r in results]) for name in results[0]["metrics"]}
            entry[key]["verdicts_per_run"] = summary([r["attempted"] for r in results])
            entry[key]["run_s"] = summary([r["run_s"] for r in results])
            for name, s in entry[key].items():
                bound = bounds.get(name) if trace == 0 else None
                print("%-14s %-40s median %-12.6g spread %-8.4f%s" % (
                    workload, name, s["median"], s.get("spread", 0.0),
                    "" if bound is None else " bound %.2f (a third: %.3f)" % (bound, bound / 3)))
            sys.stdout.flush()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
