"""Time one command on two source trees, in fresh processes that alternate.

    python tests/alternate.py TREE_A/src TREE_B/src --rounds N --seeds S -- ARGV...

ARGV is the command as the ``l3pair`` command line takes it, pair file
included and read from the current directory, e.g.
``check gauge pair.json --order 4``.  Each round starts one fresh ``python``
per tree, the first tree first in even rounds and last in odd ones.  That
process imports ``l3pair`` from its tree and runs
``cli.main(ARGV + ["--seed", s])`` in-process for each s < S, with stdout and
stderr captured; it does this three times and reports the best of the three
wall times.  Then the script prints, per tree, the median, the quartiles and
the number of rounds in which that tree beat the first one.

Only the standard library is used, and pytest does not collect this file.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

# the child: best of three wall times of the seeded runs, each run's output captured
CHILD = r"""
import contextlib, io, json, sys, time
from l3pair import cli
argv, seeds = json.loads(sys.argv[1]), int(sys.argv[2])
best = float("inf")
for _ in range(3):
    start = time.perf_counter()
    for s in range(seeds):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv + ["--seed", str(s)])
        if code not in (0, 1):
            sys.exit("exit status %s on seed %d" % (code, s))
    best = min(best, time.perf_counter() - start)
print(best)
"""


def best_time(src: str, argv: list, seeds: int) -> float:
    """The child's best of three, run in a fresh process importing ``l3pair`` from ``src``."""
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(argv), str(seeds)],
                          env=env, capture_output=True, text=True)
    if proc.returncode:
        sys.exit("%s: %s" % (src, proc.stderr.strip().splitlines()[-1] if proc.stderr.strip() else proc.returncode))
    return float(proc.stdout)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--" not in argv:
        sys.exit("usage: alternate.py TREE_A/src TREE_B/src --rounds N --seeds S -- ARGV...")
    split = argv.index("--")
    parser = argparse.ArgumentParser(prog="alternate.py")
    parser.add_argument("trees", nargs=2, help="the src directories to import l3pair from")
    parser.add_argument("--rounds", type=int, required=True)
    parser.add_argument("--seeds", type=int, required=True)
    args = parser.parse_args(argv[:split])
    command = argv[split + 1:]
    if args.rounds < 2 or args.seeds < 1:
        parser.error("--rounds must be at least 2 and --seeds at least 1")
    times = [[], []]  # per tree by position, so a tree can be timed against itself
    for r in range(args.rounds):
        for i in (0, 1) if r % 2 == 0 else (1, 0):
            times[i].append(best_time(args.trees[i], command, args.seeds))
    print("%-40s %9s %9s %9s  %s" % ("tree", "median s", "q1 s", "q3 s", "faster than the first"))
    for i, (tree, ts) in enumerate(zip(args.trees, times)):
        q1, median, q3 = statistics.quantiles(ts, n=4, method="inclusive")
        wins = "%d of %d rounds" % (sum(t < f for t, f in zip(ts, times[0])), args.rounds) if i else "-"
        print("%-40s %9.3f %9.3f %9.3f  %s" % (tree, median, q1, q3, wins))
    return 0


if __name__ == "__main__":
    sys.exit(main())
