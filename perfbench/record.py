"""Record the expected report digests that every benchmark verdict is checked against.

    python3 perfbench/record.py

Runs each verdict the workloads can issue (full and --quick, every gauge CLI
seed) and each `l3pair example` input under two PYTHONHASHSEED values,
requires exit 0 and byte-identical reports, and writes perfbench/expected.json.
Run it on a commit whose reports are known good; a later commit must
reproduce these bytes.
"""

from __future__ import annotations

import json
import sys

import run

HASHSEEDS = (0, 12345)


def record(cmd: list, out_name: str) -> str:
    digests = set()
    for hashseed in HASHSEEDS:
        out_path = run.ROOT / run.WORK / out_name
        outcome = run.launch([sys.executable, "-c", run.ENTRY], cmd, hashseed, out_path)
        if not outcome.ok:
            raise SystemExit("failed: l3pair %s" % " ".join(cmd))
        digests.add(run.digest(out_path))
    if len(digests) != 1:
        raise SystemExit("report depends on PYTHONHASHSEED: l3pair %s" % " ".join(cmd))
    print("%s  l3pair %s" % (next(iter(digests))[:12], " ".join(cmd)), file=sys.stderr)
    return digests.pop()


def main() -> int:
    (run.ROOT / run.WORK).mkdir(exist_ok=True)
    expected = {"example": {}, "verdict": {}}
    for w in run.WORKLOADS.values():
        for quick in (False, True):
            pair = run.QUICK_PAIR if quick else w.pair
            if pair not in expected["example"]:
                expected["example"][pair] = record(["example", pair], "%s.json" % pair)
            for cli_seed in run.GAUGE_SEEDS if w.seeded else (None,):
                argv = w.argv(quick, cli_seed)
                expected["verdict"][" ".join(argv)] = record(argv, "verdict.out")
    path = run.BENCH / "expected.json"
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
