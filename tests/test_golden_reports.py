"""Golden digests of CLI reports: a refactor must leave every byte unchanged.

``tests/golden_reports.json`` maps each command line below to the SHA-256 of
its report and its exit status.  The reports name their input file, so every
command runs from a scratch directory on a pair file called ``pair.json``.

Re-record (only when a report is meant to change) with

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

import pytest

from l3pair import catalog
from l3pair.cli import main

GOLDEN = Path(__file__).with_name("golden_reports.json")
PAIRS = ("sl2", "heisenberg", "aff1", "abelian:3")


def commands():
    out = []
    for order in range(1, 5):
        for seed in (0, 1):
            out.append(["check", "gauge", "--order", str(order), "--seed", str(seed)])
    out += [["check", "all"], ["compute", "mc-extend"], ["compute", "cohomology"]]
    return out


def command_key(pair: str, argv) -> str:
    return " ".join([pair] + list(argv))


def run_report(pair: str, argv):
    """(exit status, SHA-256 of stdout) of one command, run in the current directory."""
    Path("pair.json").write_text(json.dumps(catalog.get_pair(pair).to_json()))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv[:2] + ["pair.json"] + argv[2:])
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("pair", PAIRS)
def test_reports_match_the_golden_digests(pair, tmp_path, monkeypatch):
    golden = json.loads(GOLDEN.read_text())
    monkeypatch.chdir(tmp_path)
    for argv in commands():
        key = command_key(pair, argv)
        code, digest = run_report(pair, argv)
        assert {"exit": code, "sha256": digest} == golden[key], key


if __name__ == "__main__":
    import tempfile

    record = {}
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        for pair in PAIRS:
            for argv in commands():
                code, digest = run_report(pair, argv)
                record[command_key(pair, argv)] = {"exit": code, "sha256": digest}
        os.chdir(here)
    GOLDEN.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print("wrote %d digests to %s" % (len(record), GOLDEN))
