"""Every claim row comes from the table in `jetlie.claims`.

The mutation tests swap one claimed fixture for another and check that the
verdict and the derived text follow it, which they cannot do when a row is
typed in.  The guards scan `cli.py` for a hand-built row and check that
every row name in the goldens is a name in the table.
"""

import ast
import copy
import json
from pathlib import Path

import pytest

from jetlie import claims
from jetlie import symbols as sy
from jetlie.cli import main
from jetlie.expr import symbol

CLI = Path(__file__).resolve().parent.parent / "src" / "jetlie" / "cli.py"
GOLDEN = Path(__file__).parent / "golden"

F1 = "adjoint map F1: (c1 + eps*c3, c2, c3)"
F2 = "adjoint map F2: (c1, c2 + eps*c3, c3)"
G1 = "translation flow G1"
SHIFT = "claimed coordinate shift; derived"


def _with_fixture(monkeypatch, name, fixture):
    claim = copy.copy(claims.catalogue()[name])
    claim.build = lambda: fixture
    monkeypatch.setitem(claims.catalogue(), name, claim)


def _rows(argv, capsys):
    assert main(["--format", "json", *argv]) == 0
    return {row["name"]: row for row in json.loads(capsys.readouterr().out)["claims"]}


def _c(k):
    return symbol(sy.const(f"c{k}"))


def _eps_c3(scale):
    return scale * symbol(sy.eps()) * _c(3)


@pytest.mark.parametrize(
    "scale,agrees,derived",
    [(-1, "up to eps -> -eps", "(c1, c2 + eps*c3, c3)"), (2, False, "(c1, c2 + eps*c3, c3)")],
    ids=["flipped", "wrong"],
)
def test_a_wrong_f2_fixture_no_longer_agrees(scale, agrees, derived, monkeypatch, capsys):
    """c2 - eps*c3 is the derived map after eps -> -eps; c2 + 2*eps*c3 is no
    flip of it."""
    _with_fixture(monkeypatch, F2, (_c(1), _c(2) + _eps_c3(scale), _c(3)))
    row = _rows(["adjoint"], capsys)[F2]
    assert (row["agrees"], row["derived"]) == (agrees, derived)


def test_an_f1_fixture_equal_to_the_derived_map_is_identical(monkeypatch, capsys):
    _with_fixture(monkeypatch, F1, (_c(1) + _eps_c3(-1), _c(2), _c(3)))
    row = _rows(["adjoint"], capsys)[F1]
    assert (row["agrees"], row["derived"]) == (True, "identical")


@pytest.mark.parametrize(
    "gen,wrong,row",
    [
        ("1", False, f"[AGREE] {G1}: {SHIFT} coordinate shift"),
        ("2", False, f"[AGREE] translation flow G2: {SHIFT} coordinate shift"),
        ("1", True, f"[DIFFER] {G1}: {SHIFT} (x + eps, t, u)"),
    ],
    ids=["G1", "G2", "G1-wrong"],
)
def test_a_translation_flow_is_a_shift_only_as_claimed(gen, wrong, row, monkeypatch, capsys):
    """No golden runs the translation flows; with the fixture (x, t + eps, u)
    in place of (x + eps, t, u), G1 differs."""
    if wrong:
        t_shift = (symbol(sy.X), symbol(sy.T) + symbol(sy.eps()), symbol(sy.U))
        _with_fixture(monkeypatch, G1, t_shift)
    assert main(["flow", "--gen", gen]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "  " + row


def _claim_row_literals(source):
    """Line numbers of the dict literals in `source` that are claim rows: an
    "agrees" key beside a "claimed" one.  (The verify spot-check block also
    has an "agrees" key; it reports the numeric cross-check, no claim.)"""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Dict):
            keys = {k.value for k in node.keys if isinstance(k, ast.Constant)}
            if {"agrees", "claimed"} <= keys:
                lines.append(node.lineno)
    return lines


def test_the_scan_finds_a_hand_built_row():
    source = (
        'check = {"points": 100, "agrees": True}\n'
        'rows = [{"name": "n", "claimed": "c", "derived": "d", "agrees": True}]\n'
    )
    assert _claim_row_literals(source) == [2]


def test_cli_builds_no_claim_row():
    assert _claim_row_literals(CLI.read_text()) == []


def test_every_golden_claim_row_is_in_the_table():
    names = set()
    for path in GOLDEN.glob("*.json"):
        report = json.loads(path.read_text())
        if isinstance(report, dict):
            names.update(row["name"] for row in report.get("claims", []))
    assert names and names <= set(claims.catalogue())
