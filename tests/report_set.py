"""Write the reports a change must leave byte-identical, one file each, to OUT_DIR.

    PYTHONPATH=src python tests/report_set.py OUT_DIR

The set is the 384 ``check gauge`` and ``compute mc-extend`` reports (the six
catalog pairs x seeds 0-7 x orders 1-4), ``check all``, ``compute cohomology``
and ``compute derivations`` on each catalog pair, and the pinned verdicts on
sl3 rescaled (``helpers.RESCALED``) with its ``check all``, ``compute
derivations`` and ``compute cohomology``.  Each report's
stdout goes to OUT_DIR/<pair>/<command>.txt, its stderr notes to
OUT_DIR/<pair>/<command>.notes.txt without the timed verdict line of a
``check`` (``check gauge: pass (0.21s)``), and its exit status to a line of
OUT_DIR/exit_codes.txt.  Run it on two checkouts and compare with

    diff -r OUT_PARENT OUT_CHANGE

Every command runs in-process through ``helpers.run_report_text``, from a
scratch directory holding the pair as ``pair.json``, so the reports name the
same input file on every run.
"""

import os
import re
import sys
import tempfile
from pathlib import Path

from l3pair import catalog

from helpers import RESCALED, run_report_text

TIMED_VERDICT = re.compile(r"\Acheck \w+: \w+ \([0-9.]+s\)\n")  # the one stderr line that varies between runs
GAUGE_SEEDS = range(8)
GAUGE_ORDERS = range(1, 5)
RESCALED_COMMANDS = [
    ["check", "jacobi"],
    ["check", "action", "--max-arity", "4"],
    ["check", "gauge", "--order", "4", "--seed", "0"],
    ["compute", "mc-extend", "--order", "4", "--seed", "0"],
    ["check", "all"],
    ["compute", "derivations"],
    ["compute", "cohomology"],
]


def report_commands() -> list:
    """(pair, argv) of every report in the set, without the pair file argument."""
    out = []
    for pair in catalog.EXAMPLE_NAMES:
        for kind in (["check", "gauge"], ["compute", "mc-extend"]):
            for order in GAUGE_ORDERS:
                for seed in GAUGE_SEEDS:
                    out.append((pair, kind + ["--order", str(order), "--seed", str(seed)]))
        out += [(pair, ["check", "all"]), (pair, ["compute", "cohomology"]), (pair, ["compute", "derivations"])]
    return out + [(RESCALED, argv) for argv in RESCALED_COMMANDS]


def write_set(out_dir: Path) -> int:
    """Write every report of the set under ``out_dir``; returns how many were written."""
    out_dir = out_dir.resolve()
    codes = []
    commands = report_commands()
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for pair, argv in commands:
                code, stdout, stderr = run_report_text(pair, argv)
                name = "_".join(arg.lstrip("-") for arg in argv)
                path = out_dir / pair / (name + ".txt")
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(stdout)
                path.with_suffix(".notes.txt").write_text(TIMED_VERDICT.sub("", stderr, count=1))
                codes.append("%s %s %d\n" % (pair, name, code))
        finally:
            os.chdir(here)
    (out_dir / "exit_codes.txt").write_text("".join(codes))
    return len(commands)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: PYTHONPATH=src python tests/report_set.py OUT_DIR")
    print("wrote %d reports to %s" % (write_set(Path(sys.argv[1])), sys.argv[1]))
