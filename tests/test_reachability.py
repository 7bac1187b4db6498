"""Every function of the package is entered by a command: the package keeps what its commands run.

One fresh process traces, with ``sys.setprofile``, the functions entered while
``cli.main`` runs ``check all`` at orders 1 and 3, the three ``compute`` kinds
and ``example`` on each catalog pair, and one failing verdict (a pair whose
bracket fails Jacobi).  Each pair is built inside the traced region from
``catalog.make_pair`` and ``L3Pair``, so the builders are entered too.  Every
``def`` that ``ast`` finds in the package must have been entered, except the
dunder methods and the allowlisted public gauge functions.  A function only
the tests call belongs in ``tests/``: delete it from the package, or allowlist
it here with its reason.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import l3pair

PACKAGE = Path(l3pair.__file__).resolve().parent

# the public functions no command enters, each with its reason
ALLOWED = {
    "mc_defect": "public gauge API, for the gauge group law and the symmetry witnesses",
    "twisted_bracket": "public gauge API, for the gauge group law and the symmetry witnesses",
    "gauge_getzler": "public gauge API; check gauge runs both series through gauge_actions",
    "gauge_h": "public gauge API; check gauge runs both series through gauge_actions",
    "check_gauge_coincidence": "public gauge API; check gauge compares the two series itself",
}

TRACE = """import contextlib, io, json, os, sys
from pathlib import Path
from l3pair import catalog
from l3pair.cli import main
from l3pair.liepair import L3Pair

entered = set()

def profile(frame, event, arg):
    if event == "call":
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

os.chdir(sys.argv[1])
sys.setprofile(profile)
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for name in catalog.EXAMPLE_NAMES:
        main(["example", name, "--json", "pair.json"])
        Path("pair.json").write_text(json.dumps(L3Pair(catalog.make_pair(name)).pair.to_json()))
        for argv in (["check", "all", "--order", "1"], ["check", "all", "--order", "3"],
                     ["compute", "derivations"], ["compute", "cohomology"], ["compute", "mc-extend"]):
            main(argv[:2] + ["pair.json"] + argv[2:])
    data = catalog.make_pair("sl2").to_json()
    for entry in data["brackets"]:
        if (entry["left"], entry["right"]) == ("h", "e"):
            entry["out"]["e"] = "3"
    Path("bad.json").write_text(json.dumps(data))
    failed = main(["check", "jacobi", "bad.json"])
sys.setprofile(None)
print(json.dumps({"failed": failed, "entered": sorted(entered)}))
"""


def package_defs() -> list:
    """(module file name, line of the def or of its first decorator, line of the def, name) of every function."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                out.append((path.name, first, node.lineno, node.name))
    return out


def test_every_package_function_is_entered_by_a_command(tmp_path):
    """The functions no command enters are exactly the allowlisted ones, each a public name of the package:
    a new one fails, and so does an allowlisted one that a command starts to enter."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", TRACE, str(tmp_path)], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(proc.stdout)
    assert trace["failed"] == 1  # the failing verdict ran, so its defect formatting did
    entered = {(Path(f).name, line) for f, line in trace["entered"] if Path(f).resolve().parent == PACKAGE}
    unreached = [
        "%s:%d %s" % (module, line, name)
        for module, first, line, name in package_defs()
        if (module, first) not in entered and (module, line) not in entered
        and not (name.startswith("__") and name.endswith("__"))
    ]
    assert sorted(entry.split()[-1] for entry in unreached) == sorted(ALLOWED), unreached
    assert set(ALLOWED) <= set(l3pair.__all__)
