"""Golden digests of CLI reports: a refactor must leave every byte unchanged.

``tests/golden_reports.json`` maps each command line below to the SHA-256 of
its report and its exit status.  The reports name their input file, so every
command but ``example`` runs from a scratch directory on a pair file called
``pair.json``.  Besides the catalog pairs, the benchmark's verdicts are pinned
on sl3 rescaled (``helpers.RESCALED``), the one pair here whose bracket and
action tables have denominators other than 1.
The same file holds the digests of the defect records ``check_theta_gamma``
returns on deliberately broken actions (one curvature or action-map entry
doubled or negated), at three ``limit`` cut-offs, and of the gauge payloads on
broken ad tables (one entry of one ``MCContext.ad_symbols`` table doubled or
negated: the bridge records, and the coincidence difference as the reports
write it or the error the broken gauge action raises, its curvature written as
the ring oracle's element), and of the ``bracket-routes`` entry of
``check jacobi`` when the derived route's field bracket is broken (the sign of
the left derivation d_k dropped, the sign (-1)^(|X||Y|) dropped, or the YX
half of [X, Y] dropped), and of the ``extended-codifferential`` entry that ``check action`` formats
for the square of the extended codifferential of each broken action above, so that the
failure payloads are pinned as well as the passing reports.  A passing report prints no table
entry, so the file also pins the SHA-256 of a canonical dump of the tables
themselves on every catalog pair: the differential, binary and ternary
brackets of ``structure()``, and the action maps of all of Der(L).

Re-record (only when a report is meant to change) with

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import ast
import copy
import hashlib
import inspect
import json
import os
import random
import textwrap
import types
from pathlib import Path

import pytest

from l3pair import catalog
from l3pair import deraction as da
from l3pair import liepair
from l3pair import mc as mcmod
from l3pair.commands import _check_entry, _jacobi_checks
from l3pair.liepair import L3Pair
from l3pair.vectors import GradedElement

from helpers import RESCALED, copy_table, get_l3, jacobi_walk, run_report_text, theta_gamma
from ring_oracle import element

GOLDEN = Path(__file__).with_name("golden_reports.json")
PAIRS = ("sl2", "heisenberg", "aff1", "abelian:3", "sl3-cartan")
# (map, derivation, key, factor): one curvature coordinate or action-map entry
# multiplied by the factor; each of these breaks the action.
BROKEN = {
    "sl2": [
        ("kappa", 1, "h|f", 2),
        ("mu1", 2, ("h|e",), -1),
        ("mu2", 0, ("f", "h|e"), 2),
        ("mu2", 1, ("h|e", "h|f"), -1),
    ],
    "aff1": [("mu1", 1, ("a|b",), 2), ("mu1", 1, ("a|b",), -1), ("mu1", 1, ("b",), 2), ("mu1", 1, ("b",), -1)],
    "heisenberg": [
        ("mu1", 0, ("y",), 2),
        ("mu1", 2, ("z|x",), -1),
        ("mu2", 3, ("x", "z|y"), 2),
        ("mu2", 4, ("z|y", "z|y"), -1),
    ],
    "sl3-cartan": [
        ("kappa", 0, "h1|e3", 2),
        ("mu1", 4, ("h2|e1",), -1),
        ("mu2", 0, ("h1|e3", "h1^h2|f3"), 2),
        ("mu2", 5, ("e2", "h1^h2|e3"), -1),
    ],
}
LIMITS = (1, 3, 16)
# (map, symbol, key, factor): one entry of the ad table of one complement symbol of
# MCContext.ad_symbols multiplied by the factor; sl2 and heisenberg store no
# arity-1 entry, and heisenberg no curvature.  Keys of degree-1 forms reach the
# gauge series; ("f", "h|e") and ("y", "z|x") reach only the bridges.
GAUGE_BROKEN = {
    "sl2": [("kappa", 0, "h|e", 2), ("mu2", 0, ("h|e", "h|f"), -1), ("mu2", 0, ("f", "h|e"), 2)],
    "heisenberg": [("mu2", 0, ("z|x", "z|y"), 2), ("mu2", 0, ("y", "z|x"), -1)],
    "sl3-cartan": [("kappa", 0, "h1|e1", 2), ("mu1", 0, ("h1|f3",), -1), ("mu2", 0, ("h1|e1", "h1|f1"), 2)],
}
GAUGE_ORDERS = (1, 4)
# breaks of the derived route, each a list of (old, new) edits to the source of
# L3Pair._field_bracket, bound to a fresh L3Pair before its first use; the closed
# route and every table stay intact
ROUTE_BROKEN = {
    "d_k sign dropped": [("(-1 if (K & (1 << k) - 1).bit_count() & 1 else 1)", "1"),
                         ("(-1 if (w & (1 << b) - 1).bit_count() & 1 else 1)", "1")],
    "(-1)^(|X||Y|) dropped": [("s = s if (w.bit_count() - 1) * (K.bit_count() - 1) % 2 else -s", "s = -s")],
    "YX half dropped": [("if w >> b & 1:", "if False:")],
}
# each break fails the route check on each of these pairs
ROUTE_PAIRS = ("sl2", "heisenberg", "sl3-cartan", "sl3-borel-complement")
# reports pinned on pairs outside PAIRS: the one verdict whose tables have no ternary
# bracket, and the action and gauge verdicts on the second sl3 pair; and the benchmark's
# verdicts on sl3 rescaled, the one pair whose form tables are not integral
EXTRA_COMMANDS = {
    "sl3-borel-complement": [
        ["check", "jacobi"],
        ["check", "action", "--max-arity", "4"],
        ["check", "gauge", "--order", "4", "--seed", "0"],
    ],
    RESCALED: [
        ["check", "jacobi"],
        ["check", "action", "--max-arity", "4"],
        ["check", "gauge", "--order", "4", "--seed", "0"],
        ["compute", "mc-extend", "--order", "4", "--seed", "0"],
    ],
}


def pair_commands(pair):
    """The reports of every catalog pair that the bracket of L alone decides: the
    pair file ``example`` writes, and the derivation basis."""
    return [["example", pair], ["compute", "derivations"]]


def commands(pair):
    if pair == "sl3-cartan":  # the benchmark's pair: its verdicts at the size it times them, and the mc-extend the gauge verdict starts from
        return [
            ["check", "jacobi"],
            ["check", "action", "--max-arity", "4"],
            ["check", "gauge", "--order", "4", "--seed", "0"],
            ["compute", "mc-extend", "--order", "4", "--seed", "0"],
        ]
    out = []
    for order in range(1, 5):
        for seed in (0, 1):
            out.append(["check", "gauge", "--order", str(order), "--seed", str(seed)])
    out += [["check", "all"], ["compute", "mc-extend"], ["compute", "cohomology"]]
    return out


def all_commands():
    """(pair, argv) for every pinned report."""
    out = [(pair, argv) for pair in PAIRS for argv in commands(pair)]
    out += [(pair, argv) for pair, extra in EXTRA_COMMANDS.items() for argv in extra]
    return out + [(pair, argv) for pair in catalog.EXAMPLE_NAMES for argv in pair_commands(pair)]


def command_key(pair: str, argv) -> str:
    return " ".join([pair] + list(argv))


def run_report(pair: str, argv):
    """(exit status, SHA-256 of stdout) of one command, run as ``run_report_text`` runs it."""
    code, text, _ = run_report_text(pair, argv)
    return code, hashlib.sha256(text.encode()).hexdigest()


def broken_action(action, kind: str, r: int, key, factor: int):
    """A copy of ``action`` with one curvature coordinate or action-map entry multiplied by ``factor``."""
    broken = copy.copy(action)
    n = {"kappa": 0, "mu1": 1, "mu2": 2}[kind]
    table = copy_table(action.maps[r][n])
    if kind == "kappa":
        coords = dict(table.values[()].coords)
        coords[key] = factor * coords[key]
        table.values[()] = GradedElement(action.l3.basis, coords)
    else:
        table.values[key] = table.values[key].scale(factor)
    broken.maps = list(action.maps)
    broken.maps[r] = {**action.maps[r], n: table}
    return broken


def tables_dump(tables: dict) -> dict:
    """{arity: [[key, value], ...]} with keys sorted: one canonical form of a set of tables."""
    return {
        str(n): [[list(key), val.to_json()] for key, val in sorted(table.values.items())]
        for n, table in sorted(tables.items())
    }


def _sha256(data) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def table_digests(pair: str) -> dict:
    """{label: SHA-256} of the structure tables and of the Der(L) action maps, built afresh."""
    l3 = L3Pair(catalog.make_pair(pair))
    action = da.ActionMaps(l3, da.derivations(l3.pair.algebra))
    return {
        "tables %s structure" % pair: _sha256(tables_dump(l3.structure().brackets)),
        "tables %s action-maps" % pair: _sha256([tables_dump(maps) for maps in action.maps]),
    }


def theta_gamma_digests(pair: str) -> dict:
    """{label: {"defects": count, "sha256": digest of the report entry}} for every broken action."""
    l3 = get_l3(pair)
    action = da.ActionMaps(l3, da.derivations(l3.pair.algebra))
    out = {}
    for kind, r, key, factor in BROKEN[pair]:
        tg = theta_gamma(broken_action(action, kind, r, key, factor))
        for limit in LIMITS:
            defects = da.check_theta_gamma(tg, limit=limit)
            entry = json.dumps(_check_entry("action-coalgebra-form", defects), sort_keys=True)
            where = key if kind == "kappa" else "^".join(key)
            label = "check_theta_gamma %s %s der%d %s x%d limit %d" % (pair, kind, r, where, factor, limit)
            out[label] = {"defects": len(defects), "sha256": hashlib.sha256(entry.encode()).hexdigest()}
    return out


def extended_digests(pair: str) -> dict:
    """{label: {"defects": count, "sha256": digest of the report entry}} of the extended
    square (arity <= 4) of every broken action, as ``check action`` formats it."""
    l3 = get_l3(pair)
    action = da.ActionMaps(l3, da.derivations(l3.pair.algebra))
    _, square = jacobi_walk(l3.structure(), (), 4)
    out = {}
    for kind, r, key, factor in BROKEN[pair]:
        ext = da.ExtendedStructure(theta_gamma(broken_action(action, kind, r, key, factor)))
        sq = da.extended_square(ext, square, 4)
        records = [{"identity": "square-arity-%d" % k, "inputs": list(names), "defect": val} for k, names, val in sq]
        entry = json.dumps(_check_entry("extended-codifferential", records), sort_keys=True)
        where = key if kind == "kappa" else "^".join(key)
        label = "extended-codifferential %s %s der%d %s x%d" % (pair, kind, r, where, factor)
        out[label] = {"defects": len(sq), "sha256": hashlib.sha256(entry.encode()).hexdigest()}
    return out


def break_ad_table(ctx, kind: str, r: int, key, factor: int) -> None:
    """Multiply one entry of the ad table of complement symbol r in place (before the context's first gauge call)."""
    n = {"kappa": 0, "mu1": 1, "mu2": 2}[kind]
    table = ctx.ad_symbols.maps[r][n]
    if kind == "kappa":
        coords = dict(table.values[()].coords)
        coords[key] = factor * coords[key]
        table.values[()] = GradedElement(table.space, coords)
    else:
        table.values[key] = table.values[key].scale(factor)


def curvature_error(ctx, exc: ValueError) -> str:
    """The text of a gauge error, a failed curvature re-check's layered defect written as the element with
    truncated-polynomial coordinates it is (``ring_oracle.element``)."""
    head, sep, value = str(exc).partition(": ")
    if head != "curvature equation fails":
        return str(exc)
    return head + sep + repr(element(ctx, ast.literal_eval(value)))


def gauge_digests(pair: str) -> dict:
    """{label: {"bridges": count, "sha256": digest}} of the gauge payloads on every broken ad table:
    the bridge records, and the coincidence difference or the error the broken action raises."""
    out = {}
    for kind, r, key, factor in GAUGE_BROKEN[pair]:
        for order in GAUGE_ORDERS:
            ctx = mcmod.MCContext(get_l3(pair), order=order)
            break_ad_table(ctx, kind, r, key, factor)
            rng = random.Random(0)
            xi = mcmod.random_mc_element(ctx, rng)
            b = mcmod.random_gauge_parameter(ctx, rng)
            bridges = mcmod.bridge_defects(ctx, b)
            try:
                _, diff = mcmod.check_gauge_coincidence(ctx, b, xi)
                outcome = {"difference": mcmod.layered_json(ctx, diff)}
            except ValueError as exc:
                outcome = {"error": curvature_error(ctx, exc)}
            payload = {"bridges": [[k, list(names)] for k, names in bridges], **outcome}
            where = key if kind == "kappa" else "^".join(key)
            label = "gauge %s %s ad%d %s x%d order %d" % (pair, kind, r, where, factor, order)
            out[label] = {"bridges": len(bridges), "sha256": _sha256(payload)}
    return out


def break_route(l3, kind: str) -> None:
    """Bind to ``l3`` the field bracket compiled from the source of ``L3Pair._field_bracket`` with the
    edits of ``ROUTE_BROKEN[kind]``, in the module's namespace; each edited text occurs there once."""
    source = textwrap.dedent(inspect.getsource(L3Pair._field_bracket))
    for old, new in ROUTE_BROKEN[kind]:
        assert source.count(old) == 1, (kind, old)
        source = source.replace(old, new)
    scope = {}
    exec(source, vars(liepair), scope)
    l3._field_bracket = types.MethodType(scope["_field_bracket"], l3)


def route_digests(pair: str) -> dict:
    """{label: {"defects": count, "sha256": digest}} of the bracket-routes entry on every broken derived route."""
    out = {}
    for kind in ROUTE_BROKEN:
        l3 = L3Pair(catalog.make_pair(pair))
        break_route(l3, kind)
        (entry,) = [c for c in _jacobi_checks(l3, jacobi_walk(l3.structure(), range(1, 6), 6), 0, []) if c["name"] == "bracket-routes"]
        out["routes %s %s" % (pair, kind)] = {"defects": len(entry["defects"]), "sha256": _sha256(entry)}
    return out


@pytest.mark.parametrize("pair", catalog.EXAMPLE_NAMES + (RESCALED,))
def test_reports_match_the_golden_digests(pair, tmp_path, monkeypatch):
    golden = json.loads(GOLDEN.read_text())
    monkeypatch.chdir(tmp_path)
    for argv in [argv for name, argv in all_commands() if name == pair]:
        key = command_key(pair, argv)
        code, digest = run_report(pair, argv)
        assert {"exit": code, "sha256": digest} == golden[key], key


@pytest.mark.parametrize("pair", catalog.EXAMPLE_NAMES)
def test_tables_match_the_golden_digests(pair):
    golden = json.loads(GOLDEN.read_text())
    got = table_digests(pair)
    assert got == {label: golden[label] for label in got}


@pytest.mark.parametrize("pair", sorted(BROKEN))
def test_theta_gamma_failure_records_match_the_golden_digests(pair):
    golden = json.loads(GOLDEN.read_text())
    got = theta_gamma_digests(pair)
    assert all(rec["defects"] for rec in got.values())  # every mutation is caught
    assert got == {label: golden[label] for label in got}


@pytest.mark.parametrize("pair", sorted(BROKEN))
def test_extended_square_failure_records_match_the_golden_digests(pair):
    golden = json.loads(GOLDEN.read_text())
    got = extended_digests(pair)
    assert all(rec["defects"] for rec in got.values())  # every mutation is caught
    assert got == {label: golden[label] for label in got}


@pytest.mark.parametrize("pair", sorted(GAUGE_BROKEN))
def test_gauge_failure_payloads_match_the_golden_digests(pair):
    golden = json.loads(GOLDEN.read_text())
    got = gauge_digests(pair)
    assert all(rec["bridges"] for rec in got.values())  # every broken table breaks a bridge
    assert got == {label: golden[label] for label in got}


@pytest.mark.parametrize("pair", sorted(GAUGE_BROKEN))
def test_a_broken_ad_table_reaches_the_second_gauge_series(pair, monkeypatch):
    """A broken ad table makes the two inputs of ``check_gauge_coincidence`` differ, so the
    classical series runs too (two series) unless the first one already raised."""
    calls = []
    series = mcmod._series
    monkeypatch.setattr(mcmod, "_series", lambda *args: calls.append(args) or series(*args))
    for kind, r, key, factor in GAUGE_BROKEN[pair]:
        for order in GAUGE_ORDERS:
            ctx = mcmod.MCContext(get_l3(pair), order=order)
            break_ad_table(ctx, kind, r, key, factor)
            rng = random.Random(0)
            xi = mcmod.random_mc_element(ctx, rng)
            b = mcmod.random_gauge_parameter(ctx, rng)
            del calls[:]
            try:
                mcmod.check_gauge_coincidence(ctx, b, xi)
                expected = 2
            except ValueError:
                expected = 1
            assert len(calls) == expected, (kind, r, key, order)
            assert calls[0][2] != mcmod.contracted_brackets(ctx, b)  # the broken action went first


@pytest.mark.parametrize("pair", ROUTE_PAIRS)
def test_route_failure_records_match_the_golden_digests(pair):
    golden = json.loads(GOLDEN.read_text())
    got = route_digests(pair)
    assert got == {label: golden[label] for label in got}


def test_every_route_break_is_caught_on_some_pair():
    golden = json.loads(GOLDEN.read_text())
    for kind in ROUTE_BROKEN:
        assert any(golden["routes %s %s" % (pair, kind)]["defects"] for pair in ROUTE_PAIRS), kind


if __name__ == "__main__":
    import tempfile

    record = {}
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        for pair, argv in all_commands():
            code, digest = run_report(pair, argv)
            record[command_key(pair, argv)] = {"exit": code, "sha256": digest}
        os.chdir(here)
    for pair in BROKEN:
        record.update(theta_gamma_digests(pair))
        record.update(extended_digests(pair))
    for pair in GAUGE_BROKEN:
        record.update(gauge_digests(pair))
    for pair in ROUTE_PAIRS:
        record.update(route_digests(pair))
    for pair in catalog.EXAMPLE_NAMES:
        record.update(table_digests(pair))
    GOLDEN.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print("wrote %d digests to %s" % (len(record), GOLDEN))
