import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import l3pair
from l3pair import catalog
from l3pair import deraction as da
from l3pair import mc as mcmod
from l3pair.cli import main
from l3pair.deraction import CohomologyModel
from l3pair.lie import LiePair
from l3pair.liepair import L3Pair

from helpers import CACHE_SIZE, RESCALED, get_l3, get_pair, report_pair, scale_pair


def run_main(capfd, *argv):
    code = main(list(argv))
    out, err = capfd.readouterr()
    return code, out, err


def test_example_sl2(capfd):
    code, out, _ = run_main(capfd, "example", "sl2")
    assert code == 0
    data = json.loads(out)
    assert data["A"] == ["h"]
    pair = LiePair.from_json(data)
    assert pair.to_json() == get_pair("sl2").to_json()


def test_example_abelian_and_heisenberg(capfd):
    code, out, _ = run_main(capfd, "example", "abelian:2")
    data = json.loads(out)
    assert code == 0 and data["basis"] == ["v1", "v2"] and data["A"] == ["v1"] and data["brackets"] == []
    code, out, _ = run_main(capfd, "example", "heisenberg")
    data = json.loads(out)
    assert data["A"] == ["z"]
    assert data["brackets"] == [{"left": "x", "out": {"z": "1"}, "right": "y"}]


def test_example_unknown_name(capfd):
    code, out, err = run_main(capfd, "example", "nosuch")
    assert code == 2 and "unknown" in err


@pytest.mark.parametrize("name", ["abelian:1_0", "abelian: 2", "abelian:2 ", "abelian:+2", "abelian:\u0662", "abelian:"])
def test_example_abelian_rank_is_ascii_digits(capfd, name):
    """N in abelian:N is read as ASCII digits, the rule ``parse_rational`` follows: ``int`` alone would
    take "1_0" as 10, surrounding blanks, a sign and the digits of other scripts."""
    code, out, err = run_main(capfd, "example", name)
    assert code == 2 and out == "" and err == "error: unknown example %r\n" % name


def test_example_abelian_400_emits_without_a_cubic_jacobi_check(capfd):
    """A bracket-free pair has no triple where the Jacobi identity can fail, so none is summed."""
    code, out, _ = run_main(capfd, "example", "abelian:400")
    assert code == 0 and len(json.loads(out)["basis"]) == 400


def test_catalog_caches_are_bounded():
    for cached in (get_pair, get_l3):
        for n in range(1, CACHE_SIZE + 3):
            cached("abelian:%d" % n)
        info = cached.cache_info()
        assert info.maxsize == CACHE_SIZE and info.currsize == CACHE_SIZE


def test_check_all_pass(tmp_path, capfd):
    pair_file = tmp_path / "sl2.json"
    pair_file.write_text(json.dumps(get_pair("sl2").to_json()))
    code, out, err = run_main(capfd, "check", "all", str(pair_file), "--seed", "3")
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "pass"
    names = [c["name"] for c in report["checks"]]
    assert "higher-jacobi" in names and "action-axioms" in names and "gauge-coincidence" in names
    assert all(c["status"] == "pass" for c in report["checks"])


def test_check_corrupted_constant_fails(tmp_path, capfd):
    data = get_pair("sl2").to_json()
    for entry in data["brackets"]:
        if entry["left"] == "h" and entry["right"] == "e":
            entry["out"]["e"] = "3"
    pair_file = tmp_path / "bad.json"
    pair_file.write_text(json.dumps(data))
    code, out, err = run_main(capfd, "check", "jacobi", str(pair_file))
    assert code == 1
    report = json.loads(out)
    assert report["status"] == "fail"
    lie = next(c for c in report["checks"] if c["name"] == "lie-jacobi")
    assert lie["status"] == "fail"
    assert ["e", "f", "h"] in [sorted(d["inputs"]) for d in lie["defects"]]


# the joins of the one walk behind higher-jacobi and codifferential-square at the default --max-arity 6
JACOBI_JOINS = {"sl3-borel-complement": 2630, "sl3-cartan": 11320, "sl2": 34, "heisenberg": 24, "aff1": 0, "abelian:3": 0}


def jacobi_walk_note(pair: str) -> str:
    return "jacobi walk: %d joins, read by higher-jacobi on V and codifferential-square on V[1]" % JACOBI_JOINS[pair]


ABELIAN_NOTES = [
    jacobi_walk_note("abelian:3"),
    "bracket-routes: compared 8 pairs and 0 triples",
    "brackets: d 0, l2 0, l3 0 entries",
    "l3: 0 entries (beta = 0)",
]
# every bracket of abelian:3 is zero: its bridges have nothing to compare
ABELIAN_GAUGE = "gauge: 5 instances, xi = 0 in 0, b = 0 in 0; bridges compared 0 keys"
# dim H^1 of the forms, dim ker d_1 - rank d_0: the gauge notes say whether every instance is gauge-trivial
H1 = {"sl2": 0, "sl3-cartan": 0, "aff1": 0, "sl3-borel-complement": 5, "heisenberg": 2, "abelian:3": 2}


def h1_note(pair: str) -> str:
    return "H^1 has dimension %d" % H1[pair] if H1[pair] else "H^1 = 0: every instance is gauge-trivial"


# the pairs with dim A = 1, so no degree-2 forms: every curvature is zero and the Maurer-Cartan re-check is vacuous
NO_DEGREE_TWO = {"sl2", "heisenberg", "aff1", "abelian:3"}


def gauge_notes(pair: str, line: str) -> list:
    """The gauge suite's notes after its first ``line``: the vacuity of the re-check where it is vacuous, and dim H^1."""
    vacuous = ["gauge: no degree-2 forms, so the Maurer-Cartan re-check is vacuous"] if pair in NO_DEGREE_TWO else []
    return [line, *vacuous, h1_note(pair)]


# and every linear map of it is a derivation
ABELIAN_ACTION = "action: 9 derivations; extended square checked to arity 6"
DERIVATIONS = {"sl2": 3, "heisenberg": 6, "aff1": 2, "abelian:3": 9, "sl3-cartan": 8}


# (joins, (word, output) sums swept by the bracket rule, by the commutator rule) of the one walk behind the
# direct axioms and theta/gamma
ACTION_WALKS = {"sl2": (148, 28, 20), "heisenberg": (200, 31, 49), "aff1": (3, 1, 1), "abelian:3": (108, 0, 72),
                "sl3-cartan": (31210, 8592, 3982)}


def square_note(pair: str) -> list:
    """The notes after the derivation count: the joins of the action walk, read by both forms of the
    axioms, and the sums each axiom swept; the joins of the walk whose Q o Q the extended square reads;
    the composites it is formatted from, one [Q, psi] per derivation and one psi bracket per pair of
    them; and that ``extended-structure`` passes by construction."""
    n = DERIVATIONS[pair]
    composites = "%d [Q, psi] and %d psi-bracket composites" % (n, n * (n - 1) // 2)
    return [
        "action walk: %d joins, read by action-axioms on V and action-coalgebra-form on V[1]; "
        "action-bracket swept %d (word, output) sums, action-commutator %d" % ACTION_WALKS[pair],
        "extended square: reads the Q o Q of a walk of %d joins" % JACOBI_JOINS[pair],
        "action square: %s; extended words above arity 5 are zero by construction" % composites,
        "extended-structure: holds by construction of the parts it reads, so its pass is vacuous",
    ]


@pytest.mark.parametrize(
    "pair, lines",
    [
        (
            "sl3-borel-complement",
            [
                jacobi_walk_note("sl3-borel-complement"),
                "bracket-routes: compared 800 pairs and 0 triples",
                "brackets: d 17, l2 255, l3 0 entries",
                "l3: 0 entries (beta = 0)",
            ],
        ),
        ("sl3-cartan", [jacobi_walk_note("sl3-cartan"), "bracket-routes: compared 288 pairs and 960 triples",
                        "brackets: d 18, l2 54, l3 272 entries"]),
        ("sl2", [jacobi_walk_note("sl2"), "bracket-routes: compared 8 pairs and 8 triples",
                 "brackets: d 2, l2 0, l3 6 entries"]),
        ("heisenberg", [jacobi_walk_note("heisenberg"), "bracket-routes: compared 8 pairs and 8 triples",
                        "brackets: d 0, l2 0, l3 6 entries"]),
        ("abelian:3", ABELIAN_NOTES),
    ],
)
def test_check_jacobi_says_what_the_route_check_compared(tmp_path, capfd, pair, lines):
    """After the verdict line, on stderr only: the stdout report stays byte-identical.
    An empty bracket shows as 0 entries: every one on abelian:3, l2 on sl2 and heisenberg."""
    assert_notes(tmp_path, capfd, pair, "jacobi", lines)


def test_check_all_says_what_the_route_check_compared(tmp_path, capfd):
    assert_notes(tmp_path, capfd, "abelian:3", "all", ABELIAN_NOTES + [ABELIAN_ACTION, *square_note("abelian:3"), *gauge_notes("abelian:3", ABELIAN_GAUGE)])


@pytest.mark.parametrize(
    "pair, line",
    [
        ("sl2", "action: 3 derivations; extended square checked to arity 6"),
        ("heisenberg", "action: 6 derivations; extended square checked to arity 6"),
        ("aff1", "action: 2 derivations; extended square checked to arity 6"),
        ("abelian:3", ABELIAN_ACTION),
        ("sl3-cartan", "action: 8 derivations; extended square checked to arity 6"),
    ],
)
def test_check_action_says_what_the_action_suite_checked(tmp_path, capfd, pair, line):
    """After the verdict line, on stderr only: how many derivations the suite acted by, and the
    arity the extended square was checked to; then how many composites it was formatted from,
    and that no extended word above arity 5 can fail (Q has arity <= 3, each psi arity <= 2),
    so the default --max-arity 6 checks one arity that is zero by construction."""
    assert_notes(tmp_path, capfd, pair, "action", [line, *square_note(pair)])


@pytest.mark.parametrize(
    "pair, line",
    [
        ("sl3-borel-complement", "gauge: 5 instances, xi = 0 in 1, b = 0 in 0; bridges compared 41 keys"),
        ("sl2", "gauge: 5 instances, xi = 0 in 0, b = 0 in 0; bridges compared 8 keys"),
        ("heisenberg", "gauge: 5 instances, xi = 0 in 0, b = 0 in 0; bridges compared 7 keys"),
        ("aff1", "gauge: 5 instances, xi = 0 in 1, b = 0 in 0; bridges compared 1 keys"),
        ("sl3-cartan", "gauge: 5 instances, xi = 0 in 0, b = 0 in 0; bridges compared 241 keys"),
        ("abelian:3", ABELIAN_GAUGE),
    ],
)
def test_check_gauge_says_what_the_gauge_suite_compared(tmp_path, capfd, pair, line):
    """After the verdict line, on stderr only (seed 0, order 4): the instances whose MC element or
    gauge parameter is zero, the keys at which the bridge identities compared two entries, that the
    curvature re-check is vacuous on the pairs with no degree-2 forms (and on no other), and dim H^1."""
    assert_notes(tmp_path, capfd, pair, "gauge", gauge_notes(pair, line))


@pytest.mark.parametrize("pair", catalog.EXAMPLE_NAMES)
def test_gauge_note_dim_h1_is_the_cohomology_models(tmp_path, capfd, pair):
    assert H1[pair] == CohomologyModel(get_l3(pair)).dims[1]
    assert (pair in NO_DEGREE_TWO) == (len(get_pair(pair).a_names) < 2)
    pair_file = tmp_path / "pair.json"
    pair_file.write_text(json.dumps(get_pair(pair).to_json()))
    code, _, err = run_main(capfd, "check", "gauge", str(pair_file), "--order", "1")
    assert code == 0 and err.splitlines()[-1] == h1_note(pair)


@pytest.mark.parametrize("kind", ["jacobi", "action"])
def test_checks_do_not_grow_past_the_arities_the_brackets_reach(tmp_path, capfd, kind):
    """Brackets of arity <= 3 compose to arity <= 5: a --max-arity of 10^9 walks what 6 walks, and the
    report differs only in the parameter."""
    pair_file = tmp_path / "pair.json"
    pair_file.write_text(json.dumps(get_pair("sl3-cartan").to_json()))
    reports = []
    for max_arity in ("6", "1000000000"):
        code, out, _ = run_main(capfd, "check", kind, str(pair_file), "--max-arity", max_arity)
        assert code == 0
        reports.append(json.loads(out))
    assert reports[1]["parameters"].pop("max_arity") == 10**9 and reports[0]["parameters"].pop("max_arity") == 6
    assert reports[0] == reports[1]


def assert_notes(tmp_path, capfd, pair, kind, lines):
    pair_file = tmp_path / "pair.json"
    pair_file.write_text(json.dumps(get_pair(pair).to_json()))
    code, out, err = run_main(capfd, "check", kind, str(pair_file))
    assert code == 0 and json.loads(out)["status"] == "pass"
    verdict, *rest = err.strip().splitlines()
    assert verdict.startswith("check %s: pass (" % kind) and rest == lines
    assert not any(line in out for line in lines)


def test_non_lie_bracket_fails_every_check_kind(tmp_path, capfd, monkeypatch):
    """Every suite presumes a Lie bracket: each kind reports the same failing lie-jacobi entry and runs nothing else."""
    data = get_pair("sl2").to_json()
    for entry in data["brackets"]:
        if entry["left"] == "h" and entry["right"] == "e":
            entry["out"]["e"] = "3"
    pair_file = tmp_path / "bad.json"
    pair_file.write_text(json.dumps(data))
    built, init = [], L3Pair.__init__
    monkeypatch.setattr(L3Pair, "__init__", lambda self, pair: built.append(pair) or init(self, pair))
    entries = []
    for kind in ("jacobi", "action", "gauge", "all"):
        code, out, _ = run_main(capfd, "check", kind, str(pair_file))
        report = json.loads(out)
        assert code == 1 and report["status"] == "fail", kind
        assert [c["name"] for c in report["checks"]] == ["lie-jacobi"], kind
        entries.append(report["checks"][0])
    assert entries[0]["status"] == "fail" and all(e == entries[0] for e in entries)
    assert not built


def test_unwritable_json_path_is_an_output_error(tmp_path, capfd):
    pair_file = tmp_path / "sl2.json"
    pair_file.write_text(json.dumps(get_pair("sl2").to_json()))
    target = str(tmp_path / "no-such-dir" / "report.json")
    cases = [["example", "sl2"], ["check", "jacobi", str(pair_file)], ["compute", "derivations", str(pair_file)]]
    for argv in cases:
        code, out, err = run_main(capfd, *argv, "--json", target)
        assert code == 2 and out == "", argv
        assert err.startswith("error: cannot write %s" % target) and len(err.strip().splitlines()) == 1, err
        assert "Traceback" not in err


def test_deeply_nested_pair_file_is_an_input_error(tmp_path, capfd):
    pair_file = tmp_path / "deep.json"
    pair_file.write_text("[" * 100000 + "]" * 100000)
    for argv in (["check", "jacobi", str(pair_file)], ["compute", "derivations", str(pair_file)]):
        code, out, err = run_main(capfd, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1 and "Traceback" not in err


def test_check_gauge_order_one(tmp_path, capfd):
    pair_file = tmp_path / "aff1.json"
    pair_file.write_text(json.dumps(get_pair("aff1").to_json()))
    code, out, _ = run_main(capfd, "check", "gauge", str(pair_file), "--order", "1", "--seed", "11")
    assert code == 0
    report = json.loads(out)
    assert any(c["name"] == "gauge-order1-closed-forms" and c["status"] == "pass" for c in report["checks"])


@pytest.mark.parametrize("name", ["sl3-cartan", RESCALED])
def test_check_gauge_order_one_runs_one_series_per_instance(tmp_path, capfd, monkeypatch, name):
    """The coincidence and both order-1 closed forms read the same two gauge series, and on
    equal (table, sign) inputs those are one series: 5 instances run ``_series`` 5 times, also
    on sl3 rescaled, whose tables are not integral."""
    from l3pair import mc as mcmod

    calls = []
    series = mcmod._series
    monkeypatch.setattr(mcmod, "_series", lambda *args: calls.append(args) or series(*args))
    pair_file = tmp_path / "sl3.json"
    pair_file.write_text(json.dumps(report_pair(name).to_json()))
    code, out, _ = run_main(capfd, "check", "gauge", str(pair_file), "--order", "1", "--seed", "3")
    assert code == 0 and len(calls) == 5
    report = json.loads(out)
    assert [c["status"] for c in report["checks"] if c["name"] == "gauge-order1-closed-forms"] == ["pass"]


def test_check_gauge_reports_a_series_that_fails_the_curvature_recheck(tmp_path, capfd, monkeypatch):
    """A gauge series whose result is no Maurer-Cartan element (``gauge_actions`` raises) is one
    failing ``gauge-maurer-cartan`` record of its instance, whose order-1 closed forms are skipped;
    the other instances are checked as before."""
    from l3pair import mc as mcmod

    calls = []
    actions = mcmod.gauge_actions

    def second_fails(*args):
        calls.append(args)
        if len(calls) == 2:
            raise ValueError("curvature equation fails")
        return actions(*args)

    monkeypatch.setattr(mcmod, "gauge_actions", second_fails)
    pair_file = tmp_path / "sl3.json"
    pair_file.write_text(json.dumps(get_pair("sl3-cartan").to_json()))
    code, out, _ = run_main(capfd, "check", "gauge", str(pair_file), "--order", "1", "--seed", "3")
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert code == 1 and len(calls) == 5
    assert checks["gauge-coincidence"]["defects"] == [{"identity": "gauge-maurer-cartan", "inputs": ["instance1"], "defect": "nonzero"}]
    assert checks["gauge-order1-closed-forms"]["status"] == "pass" and checks["gauge-bridges"]["status"] == "pass"


def test_byte_identical_reports(tmp_path, capfd):
    pair_file = tmp_path / "heis.json"
    pair_file.write_text(json.dumps(get_pair("heisenberg").to_json()))
    outs = []
    for run in (1, 2):
        path = tmp_path / ("r%d.json" % run)
        code, _, _ = run_main(capfd, "check", "all", str(pair_file), "--seed", "7", "--json", str(path))
        assert code == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_compute_derivations(tmp_path, capfd):
    pair_file = tmp_path / "sl2.json"
    pair_file.write_text(json.dumps(get_pair("sl2").to_json()))
    code, out, _ = run_main(capfd, "compute", "derivations", str(pair_file))
    assert code == 0
    data = json.loads(out)
    assert data["dimension"] == 3 and len(data["basis"]) == 3


def test_compute_cohomology(tmp_path, capfd):
    pair_file = tmp_path / "heis.json"
    pair_file.write_text(json.dumps(get_pair("heisenberg").to_json()))
    code, out, _ = run_main(capfd, "compute", "cohomology", str(pair_file))
    data = json.loads(out)
    assert code == 0 and data["dimensions"] == {"0": 2, "1": 2}
    pair_file2 = tmp_path / "sl2.json"
    pair_file2.write_text(json.dumps(get_pair("sl2").to_json()))
    code, out, _ = run_main(capfd, "compute", "cohomology", str(pair_file2))
    data = json.loads(out)
    assert code == 0 and data["dimensions"] == {"0": 0, "1": 0}


def test_compute_mc_extend(tmp_path, capfd):
    pair_file = tmp_path / "sl3.json"
    pair_file.write_text(json.dumps(get_pair("sl3-cartan").to_json()))
    code, out, _ = run_main(capfd, "compute", "mc-extend", str(pair_file), "--seed", "5", "--order", "3")
    assert code == 0
    data = json.loads(out)
    assert data["status"] in ("extended", "obstructed")
    if data["status"] == "extended":
        assert data["element"]


def test_compute_rejects_invalid_algebra(tmp_path, capfd):
    data = get_pair("sl2").to_json()
    data["brackets"][0]["out"]["e"] = "3"
    pair_file = tmp_path / "bad.json"
    pair_file.write_text(json.dumps(data))
    code, _, err = run_main(capfd, "compute", "derivations", str(pair_file))
    assert code == 2 and "Jacobi" in err


def test_console_script_runs():
    env = dict(os.environ, PYTHONPATH=str(Path(l3pair.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "l3pair.cli", "example", "aff1"], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["A"] == ["a"]


def test_package_imports_without_the_tests(tmp_path):
    """The package stands alone: nothing in it imports the test oracle, and every export resolves."""
    code = "import l3pair, l3pair.cli; print([nm for nm in l3pair.__all__ if not hasattr(l3pair, nm)])"
    env = dict(os.environ, PYTHONPATH=str(Path(l3pair.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout == "[]\n", proc.stderr


def test_public_names_resolve_lazily(tmp_path):
    """Importing the package loads none of its modules; each public name resolves, through the
    module-level ``__getattr__``, to the object its module defines, and an unknown name does not."""
    code = "import sys, l3pair; print(sorted(m for m in sys.modules if m.startswith('l3pair')))"
    env = dict(os.environ, PYTHONPATH=str(Path(l3pair.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout == "['l3pair']\n", proc.stderr
    for name in l3pair.__all__:
        home = importlib.import_module("l3pair." + l3pair._HOME[name])
        assert l3pair.__getattr__(name) is getattr(home, name) is getattr(l3pair, name), name
    assert set(l3pair.__all__) <= set(dir(l3pair))
    with pytest.raises(AttributeError, match="no_such_name"):
        l3pair.__getattr__("no_such_name")
    with pytest.raises(AttributeError):
        l3pair.no_such_name


def _imports_of(tmp_path, *argv):
    """(process, names of the modules it imported) of one `l3pair` run, read off ``-X importtime``."""
    env = dict(os.environ, PYTHONPATH=str(Path(l3pair.__file__).resolve().parents[1]))
    cmd = [sys.executable, "-X", "importtime", "-m", "l3pair.cli", *argv]
    proc = subprocess.run(cmd, cwd=tmp_path, env=env, capture_output=True, text=True)
    names = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}
    return proc, names


def test_example_and_jacobi_load_only_what_they_run(tmp_path):
    """`l3pair example` and `--help` load the parser, the catalog and the input model but no module of the
    form engine; `check jacobi` imports neither the derivation action, the gauge calculus nor the linear
    algebra, and the report digest loads no OpenSSL where CPython has its own SHA-256; the suites that do
    use them still pass, and `check action` loads no gauge calculus."""
    unused = {"l3pair.mc", "l3pair.deraction", "l3pair.linalg"}
    engine = unused | {"l3pair.liepair", "l3pair.graded", "l3pair.linfty", "l3pair.commands", "l3pair.compute"}
    if importlib.util.find_spec("_sha256") or importlib.util.find_spec("_sha2"):
        unused.add("_hashlib")
    for argv in (("example", "sl2", "--json", "sl2.json"), ("--help",)):
        proc, names = _imports_of(tmp_path, *argv)
        assert proc.returncode == 0 and "l3pair.catalog" in names and not names & (engine | unused), proc.stderr
    proc, names = _imports_of(tmp_path, "check", "jacobi", "sl2.json")
    assert proc.returncode == 0 and "l3pair.linfty" in names and not names & unused, proc.stderr
    for kind in ("gauge", "action"):
        proc, names = _imports_of(tmp_path, "check", kind, "sl2.json", "--max-arity", "3")
        assert proc.returncode == 0 and "l3pair.deraction" in names, proc.stderr
        assert ("l3pair.mc" in names) == (kind == "gauge")  # the action suite runs no gauge calculus


# the source lines of the package's modules that one run leaves loaded, printed as stderr's last line
LOADED_LINES = """import sys
from l3pair.cli import main
try:
    main(sys.argv[1:])
except SystemExit:
    pass
files = [m.__file__ for name, m in sys.modules.items() if name == "l3pair" or name.startswith("l3pair.")]
print(sum(sum(1 for _ in open(f, encoding="utf-8")) for f in files), file=sys.stderr)
"""
# each command's budget of loaded lines, what it loads now, so that deleted lines cannot creep back: the input
# model alone for example and --help, and for compute none of check's suites
LINE_BUDGETS = [
    (("example", "sl2"), 718),
    (("--help",), 718),
    (("check", "jacobi", "sl2.json"), 1811),
    (("check", "action", "sl2.json"), 2460),
    (("check", "gauge", "sl2.json"), 3131),
    (("compute", "derivations", "sl2.json"), 2355),
    (("compute", "cohomology", "sl2.json"), 2355),
    (("compute", "mc-extend", "sl2.json"), 3026),
]


@pytest.mark.parametrize("argv, budget", LINE_BUDGETS, ids=[" ".join(argv[:2]) for argv, _ in LINE_BUDGETS])
def test_each_command_compiles_at_most_its_line_budget(tmp_path, argv, budget):
    """Without a bytecode cache a process compiles every module it imports, so the lines a command
    leaves loaded are what it compiles: `example` and `--help` stay clear of the form engine."""
    (tmp_path / "sl2.json").write_text(json.dumps(get_pair("sl2").to_json()))
    env = dict(os.environ, PYTHONPATH=str(Path(l3pair.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", LOADED_LINES, *argv], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stderr.splitlines()[-1]) <= budget


def test_check_all_builds_one_structure(tmp_path, capfd, monkeypatch):
    """The jacobi, action and gauge suites of one `check all` share one bracket structure."""
    pair_file = tmp_path / "sl2.json"
    pair_file.write_text(json.dumps(get_pair("sl2").to_json()))
    built, init = [], L3Pair.__init__
    monkeypatch.setattr(L3Pair, "__init__", lambda self, pair: built.append(pair) or init(self, pair))
    code, out, _ = run_main(capfd, "check", "all", str(pair_file))
    assert code == 0 and json.loads(out)["status"] == "pass"
    assert len(built) == 1


def test_negative_order_is_a_usage_error(tmp_path, capfd):
    """An --order or --max-arity below 1 would check nothing (the ideal (t) of Q[t]/(t) is zero)."""
    pair_file = tmp_path / "sl2.json"
    pair_file.write_text(json.dumps(get_pair("sl2").to_json()))
    cases = [["check", "gauge", str(pair_file), "--order", v] for v in ("-1", "0")]
    cases += [["compute", kind, str(pair_file), "--order", v] for kind in ("mc-extend", "derivations") for v in ("-1", "0")]
    cases += [["check", kind, str(pair_file), "--max-arity", v] for kind in ("jacobi", "action", "all") for v in ("-1", "0")]
    for argv in cases:
        code, out, err = run_main(capfd, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1 and "Traceback" not in err
        assert argv[-2] in err, argv


def test_empty_complement_is_an_input_error(tmp_path, capfd):
    """With A all of L there are no complement-valued forms, so every check and form computation would be vacuous."""
    data = get_pair("sl2").to_json()
    data["A"] = ["h", "e", "f"]
    pair_file = tmp_path / "sl2-full.json"
    pair_file.write_text(json.dumps(data))
    cases = [["check", kind] for kind in ("jacobi", "action", "gauge", "all")]
    cases += [["compute", kind] for kind in ("cohomology", "mc-extend")]
    for command, kind in cases:
        code, out, err = run_main(capfd, command, kind, str(pair_file))
        assert code == 2 and out == "", kind
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1 and "Traceback" not in err
        assert "L/A is zero" in err, kind
    code, out, _ = run_main(capfd, "compute", "derivations", str(pair_file))
    assert code == 0 and json.loads(out)["dimension"] == 3


def test_empty_subalgebra_is_an_input_error_for_the_gauge_calculus(tmp_path, capfd):
    """With A zero there are no degree-1 forms: every Maurer-Cartan element and gauge result would be zero."""
    data = get_pair("sl2").to_json()
    data["A"] = []
    pair_file = tmp_path / "sl2-no-a.json"
    pair_file.write_text(json.dumps(data))
    for command, kind in (("check", "gauge"), ("check", "all"), ("compute", "mc-extend")):
        code, out, err = run_main(capfd, command, kind, str(pair_file))
        assert code == 2 and out == "", kind
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1 and "Traceback" not in err
        assert "A is zero" in err and "degree-1 forms" in err, kind
    for command, kind in (("check", "jacobi"), ("check", "action"), ("compute", "cohomology"), ("compute", "derivations")):
        code, out, _ = run_main(capfd, command, kind, str(pair_file))
        assert code == 0 and json.loads(out), kind


def _out_of_memory(*args, **kwargs):
    raise MemoryError


# one stage of each command, patched to run out of memory
MEMORY_STAGES = [(("example", "sl2"), catalog, "make_pair")]
MEMORY_STAGES += [(("check", kind, "sl2.json"), L3Pair, "structure") for kind in ("jacobi", "action", "gauge", "all")]
MEMORY_STAGES += [(("compute", kind, "sl2.json"), da, "derivations") for kind in ("derivations", "cohomology")]
MEMORY_STAGES += [(("compute", "mc-extend", "sl2.json"), mcmod, "mc_extend")]


@pytest.mark.parametrize("argv, owner, name", MEMORY_STAGES, ids=[" ".join(argv[:2]) for argv, _, _ in MEMORY_STAGES])
def test_running_out_of_memory_is_exit_3_and_one_line(tmp_path, capfd, monkeypatch, argv, owner, name):
    """Running out of memory is not a verdict: exit 3, one `error:` line naming the command, and no report."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sl2.json").write_text(json.dumps(get_pair("sl2").to_json()))
    monkeypatch.setattr(owner, name, _out_of_memory)
    code, out, err = run_main(capfd, *argv)
    command = " ".join(argv[:1] if argv[0] == "example" else argv[:2])
    assert (code, out, err) == (3, "", "error: %s: out of memory\n" % command)


def test_a_child_out_of_address_space_exits_3(tmp_path):
    """`check all` on sp4-Borel in a child whose address space is capped at 60,000 KB raises
    MemoryError in the action walk; the limit is set on that child alone."""
    import resource
    (tmp_path / "sp4-borel.json").write_text(json.dumps(scale_pair("sp4-borel").to_json()))
    env = dict(os.environ, PYTHONPATH=str(Path(l3pair.__file__).resolve().parents[1]))

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (60_000 * 1024, 60_000 * 1024))

    proc = subprocess.run([sys.executable, "-m", "l3pair.cli", "check", "all", "sp4-borel.json"], cwd=tmp_path, env=env,
                          preexec_fn=cap, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", "error: check all: out of memory\n")


def test_top_level_json_list_is_an_input_error(tmp_path, capfd):
    pair_file = tmp_path / "list.json"
    pair_file.write_text(json.dumps([get_pair("sl2").to_json()]))
    code, out, err = run_main(capfd, "check", "all", str(pair_file))
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1 and "Traceback" not in err


def _set_out(data, value):
    data["brackets"][0]["out"]["e"] = value


def _drop(field, entry=None):
    def corrupt(data):
        del (data if entry is None else data["brackets"][entry])[field]

    return corrupt


@pytest.mark.parametrize(
    "corrupt, names",
    [
        pytest.param(lambda d: _set_out(d, 2), (), id="number-coefficient"),
        pytest.param(lambda d: _set_out(d, "1/0"), (), id="zero-denominator"),
        pytest.param(lambda d: _set_out(d, "1_000"), ("1_000",), id="underscore-digits"),
        pytest.param(lambda d: _set_out(d, "\u0663"), (), id="non-ascii-digits"),
        pytest.param(lambda d: d["brackets"][0].update(out=["e"]), (), id="out-not-an-object"),
        pytest.param(lambda d: d.update(brackets=["h"]), (), id="entry-not-an-object"),
        pytest.param(lambda d: d.update(basis="hef"), (), id="basis-string"),
        pytest.param(lambda d: d.update(A="he"), (), id="subalgebra-string"),
        pytest.param(_drop("left", 0), ('"left"', "entry 0"), id="missing-left"),
        pytest.param(_drop("right", 1), ('"right"', "entry 1"), id="missing-right"),
        pytest.param(_drop("out", 2), ('"out"', "entry 2"), id="missing-out"),
        pytest.param(_drop("basis"), ('"basis"',), id="missing-basis"),
        pytest.param(_drop("A"), ('"A"',), id="missing-subalgebra"),
        pytest.param(lambda d: d["brackets"][0]["out"].update(q="1"), ("'q'", "not in basis"), id="out-outside-basis"),
        pytest.param(lambda d: d["brackets"][0].update(left="e", right="h"), ("left < right",), id="swapped-key"),
        pytest.param(lambda d: d["brackets"][0].update(left="q"), ("unknown symbol", "'q'"), id="unknown-name"),
        pytest.param(lambda d: d["brackets"].append(dict(d["brackets"][1])), ("duplicate", "'h', 'f'"), id="duplicate-entry"),
        pytest.param(lambda d: d["basis"].__setitem__(0, "a^b"), ("invalid basis name", "a^b"), id="invalid-basis-name"),
    ],
)
def test_malformed_pair_file_is_an_input_error(tmp_path, capfd, corrupt, names):
    data = get_pair("sl2").to_json()
    corrupt(data)
    pair_file = tmp_path / "pair.json"
    pair_file.write_text(json.dumps(data))
    for argv in (["check", "jacobi", str(pair_file)], ["compute", "derivations", str(pair_file)]):
        code, out, err = run_main(capfd, *argv)
        assert code == 2 and out == "", (argv, err)
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1 and "Traceback" not in err
        assert all(nm in err for nm in names), err


@pytest.mark.parametrize(
    "name, pad",
    [
        pytest.param("sl2", lambda d: d["brackets"][0]["out"].update(f="0"), id="zero-coefficient"),
        pytest.param("heisenberg", lambda d: d["brackets"].append({"left": "x", "right": "z", "out": {"y": "0"}}), id="zero-entry"),
    ],
)
def test_zero_coefficient_is_the_same_as_no_entry(name, pad):
    data = get_pair(name).to_json()
    pad(data)
    pair = LiePair.from_json(data)
    assert pair.to_json() == get_pair(name).to_json()
    assert pair.digest() == get_pair(name).digest()


def test_reports_do_not_depend_on_the_hash_seed(tmp_path):
    files = []
    for name in ("sl2", "aff1"):
        path = tmp_path / ("%s.json" % name)
        path.write_text(json.dumps(get_pair(name).to_json()))
        files.append(str(path))
    commands = [["check", "all", f, "--seed", "2"] for f in files]
    commands += [["compute", "mc-extend", f, "--seed", "3", "--order", "3"] for f in files]
    src = str(Path(l3pair.__file__).resolve().parents[1])
    outputs = []
    for hash_seed in ("0", "1", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        runs = [
            subprocess.run([sys.executable, "-m", "l3pair.cli", *argv], env=env, capture_output=True, check=False)
            for argv in commands
        ]
        assert [r.returncode for r in runs] == [0] * len(commands), [r.stderr for r in runs]
        outputs.append([r.stdout for r in runs])
    assert all(outputs[0])
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


def test_each_join_is_walked_once_for_both_gradings(tmp_path, capfd):
    """On sl3-cartan one walk serves each identity and its decalage image: 31,210 joins for the direct
    axioms and theta/gamma together (a walk per grading made 62,420), and 11,320 for the Jacobi sweep
    and Q o Q together (22,640); ``check action`` composes Q o Q to --max-arity 4 in a walk of its own."""
    pair_file = tmp_path / "pair.json"
    pair_file.write_text(json.dumps(get_pair("sl3-cartan").to_json()))
    code, _, action = run_main(capfd, "check", "action", str(pair_file), "--max-arity", "4")
    assert code == 0
    assert re.search(r"^action walk: 31210 joins, ", action, re.M)
    assert re.search(r"^extended square: reads the Q o Q of a walk of 3580 joins$", action, re.M)
    code, _, jacobi = run_main(capfd, "check", "jacobi", str(pair_file))
    assert code == 0 and re.search(r"^jacobi walk: 11320 joins, ", jacobi, re.M)
