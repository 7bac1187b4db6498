"""Every row of the mutation registry (``tests/mutations.py``) fails the report entries it
names of its command and passes the ones it says hold, on every pair it names, and it
names at least two pairs."""

import json

import pytest

import mutations as mu
from helpers import run_report_text


@pytest.mark.parametrize("row", mu.REGISTRY, ids=[row.name for row in mu.REGISTRY])
def test_each_mutation_is_caught_on_at_least_two_pairs(row, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    mu.apply(row, monkeypatch)
    escaped = []
    for pair in row.pairs:
        code, text, _ = run_report_text(pair, list(row.argv))
        checks = {check["name"]: check["status"] for check in json.loads(text)["checks"]}
        failing = {name for name, status in checks.items() if status == "fail"}
        broken = set(row.holds) - (set(checks) - failing)  # a held entry must be in the report and pass
        if code != 1 or not failing >= set(row.entries) or broken:
            escaped.append("%s (passing: %s; not holding: %s)" % (
                pair, ", ".join(sorted(set(row.entries) - failing)), ", ".join(sorted(broken))))
    assert not escaped and len(row.pairs) >= 2, "%s escaped on %s" % (row.name, "; ".join(escaped) or "no pair")
