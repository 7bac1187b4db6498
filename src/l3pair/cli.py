"""The ``l3pair`` command: the parser, ``example``, and ``check`` and ``compute`` imported when they run.

``example`` and ``--help`` compile only the parser, the catalog and the input
model (``lie``, ``vectors``, ``scalars``), never the form engine.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import catalog
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
    args = build_parser().parse_args(argv)
    if args.command == "example":
        return cmd_example(args)
    if args.command == "check":  # the engine is compiled only when check or compute runs
        from .commands import cmd_check

        return cmd_check(args)
    from .compute import cmd_compute

    return cmd_compute(args)


if __name__ == "__main__":
    sys.exit(main())
