"""Tests of the benchmark harness, in quick mode (small catalog pairs)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from itertools import islice

import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(workload: str, trace: int, seed: int = 3, cwd=run.ROOT, script=run.BENCH / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
           "--seconds", "0.5", "--trace", str(trace), "--quick"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(workload):
    res = result_of(bench(workload, 0))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert {n: m["unit"] for n, m in res["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", ["jacobi-cartan", "gauge-cartan"])
def test_traced_run_reports_every_per_layer_metric(workload):
    res = result_of(bench(workload, 1))
    assert res["correct"] and res["failed"] == 0
    metrics = {n: m["value"] for n, m in res["metrics"].items()}
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    if workload == "gauge-cartan":
        assert metrics["scalars.truncpoly_mul.calls"] > 0
        assert metrics["mc.mc_extend.calls"] > 0
        assert metrics["linfty.jacobi_defect_basis.calls"] == 0
    else:
        assert metrics["scalars.truncpoly_mul.calls"] == 0
        assert metrics["linfty.jacobi_defect_basis.calls"] > 0
        assert metrics["liepair.bracket_cache.hit_frac"] == 0.5
        assert metrics["graded.table_reads.calls"] > 0


def test_same_seed_same_plan():
    w = run.WORKLOADS["gauge-cartan"]
    first = list(islice(run.verdict_plan(w, 5, quick=False), 10))
    assert first == list(islice(run.verdict_plan(w, 5, quick=False), 10))
    assert first != list(islice(run.verdict_plan(w, 6, quick=False), 10))
    assert sorted(int(argv[-1]) for argv, _ in first[:8]) == list(run.GAUGE_SEEDS)


def test_report_mismatch_fails_the_verdict(tmp_path):
    out = tmp_path / "report.json"
    out.write_text("{}\n", encoding="utf-8")
    outcome = run.Outcome(["check", "jacobi", "x.json"], 1.0, 1000, True)
    assert run.checked(outcome, out, run.digest(out)).ok
    assert not run.checked(outcome, out, "0" * 64).ok


def test_exact_count_mismatch_is_found():
    a = {"counts": {"x.calls": 3, "y.calls": 1}}
    b = {"counts": {"x.calls": 3, "z.calls": 2}}
    assert run.exact_count_mismatches([a, b]) == []
    assert run.exact_count_mismatches([a, {"counts": {"x.calls": 4}}]) == ["x.calls: 3 != 4"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(run.BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("jacobi-cartan", 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""
