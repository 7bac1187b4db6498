"""The ``l3pair`` command: the parser, ``example``, the pair-file input of ``check`` and ``compute``,
and those two imported when they run.

``example`` and ``--help`` compile only the parser, the catalog and the input
model (``lie``, ``vectors``, ``scalars``), never the form engine.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import catalog
from .lie import LiePair
from .scalars import DEFAULT_ORDER


def _emit(data: dict, path: str | None) -> bool:
    """Write canonical JSON to PATH or stdout; False, after one error line, if PATH cannot be written."""
    text = json.dumps(data, sort_keys=True, indent=2, separators=(",", ": "))
    if not path:
        sys.stdout.write(text + "\n")
        return True
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        print("error: cannot write %s: %s" % (path, exc.strerror or exc), file=sys.stderr)
        return False
    return True


def _load_pair(path: str) -> LiePair:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError("JSON nested too deeply") from None
    if not isinstance(data, dict):
        raise ValueError("the top level must be a JSON object, not %s" % type(data).__name__)
    return LiePair.from_json(data, validate=False)


def _read_pair(args, what: str | None, degree_one: bool = False) -> LiePair | None:
    """The pair file of a ``check`` or ``compute`` run, or None after one ``error:`` line.

    It refuses an --order or --max-arity below 1 (nothing would be checked), a file that
    cannot be read, and, unless ``what`` is None, a pair with nothing to ``what``: an empty
    complement leaves no forms at all, and an empty A no degree-1 forms (so, with
    ``degree_one``, no Maurer-Cartan element and no gauge correction).
    """
    for flag, value in (("--order", args.order), ("--max-arity", getattr(args, "max_arity", 1))):
        if value < 1:
            print("error: %s must be >= 1, got %d" % (flag, value), file=sys.stderr)
            return None
    try:
        pair = _load_pair(args.pair_file)
    except (OSError, ValueError, KeyError) as exc:
        print("error: cannot read %s: %s" % (args.pair_file, exc), file=sys.stderr)
        return None
    if what is None:
        return pair
    if not pair.b_names:
        reason = "L/A is zero (A is all of L): there are no forms"
    elif degree_one and not pair.a_names:
        reason = "A is zero: there are no degree-1 forms"
    else:
        return pair
    print("error: %s: %s to %s" % (args.pair_file, reason, what), file=sys.stderr)
    return None


def cmd_example(args) -> int:
    try:
        pair = catalog.make_pair(args.name)
    except (ValueError, KeyError) as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return 2
    return 0 if _emit(pair.to_json(), args.json) else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="l3pair",
        description="Exact verification engine for the bracket structure on "
        "complement-valued forms of a Lie pair and its derivation symmetry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ex = sub.add_parser("example", help="emit a shipped example pair as JSON")
    p_ex.add_argument("name", help="one of %s (abelian:N for any N >= 1)" % (", ".join(catalog.EXAMPLE_NAMES),))
    p_ex.add_argument("--json", metavar="PATH", default=None, help="write to a file instead of stdout")

    p_ck = sub.add_parser("check", help="run an identity-check suite on a pair file")
    p_ck.add_argument("kind", choices=["jacobi", "action", "gauge", "all"])
    p_ck.add_argument("pair_file")
    p_ck.add_argument("--max-arity", type=int, default=6, dest="max_arity")
    p_ck.add_argument("--order", type=int, default=DEFAULT_ORDER)
    p_ck.add_argument("--seed", type=int, default=0)
    p_ck.add_argument("--json", metavar="PATH", default=None)

    p_cp = sub.add_parser("compute", help="compute derived data for a pair file")
    p_cp.add_argument("kind", choices=["derivations", "cohomology", "mc-extend"])
    p_cp.add_argument("pair_file")
    p_cp.add_argument("--order", type=int, default=DEFAULT_ORDER)
    p_cp.add_argument("--seed", type=int, default=0)
    p_cp.add_argument("--json", metavar="PATH", default=None)
    return parser


def main(argv=None) -> int:
    """Run one command: exit 0 or 1 is its verdict, 2 a usage or input error, 3 running out of memory,
    after one ``error:`` line.  A ``SystemError``, CPython reporting a fault of its own, is not caught."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "example":
            return cmd_example(args)
        if args.command == "check":  # the engine is compiled only when check or compute runs
            from .commands import cmd_check

            return cmd_check(args)
        from .compute import cmd_compute

        return cmd_compute(args)
    except MemoryError:  # leaving the handler releases the frames that held the memory
        pass
    print("error: %s: out of memory" % " ".join([args.command, getattr(args, "kind", "")]).strip(), file=sys.stderr)
    return 3


if __name__ == "__main__":
    sys.exit(main())
