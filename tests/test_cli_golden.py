"""Golden tests for every `jetlie` command: byte-exact text and JSON reports.

Each case runs at symbolic parameters and at alpha=1, beta=1/2 (the
Sakovich-Sakovich short pulse equation), in both output formats.  The
expected outputs live in tests/golden/; rewrite them after an intended
change of the reports with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from pathlib import Path

import pytest

from jetlie.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "point-affine": ["solve", "point-affine"],
    "order-3-both": ["--interp", "both", "solve", "order-3"],
    "order-3-derived": ["solve", "order-3-derived"],
    "custom-poly": ["solve", "u,x*u,u^2"],
    # nullspace pivot ties, and so the order of the assumptions, follow row order
    "custom-radical": ["solve", "u*sqrt(1+u^2),x*sqrt(1+u^2),u"],
    # the commas inside jet names do not split the basis list
    "custom-jets": ["solve", "u[1,0],u[0,1]"],
}
# the radical third-order symmetry D_x(u_xx * (2*b*u_x^2 + a)^(-3/2))
K3 = "u[3,0]*sqrt(2*b*u[1,0]^2 + a)^-3 - 6*b*u[1,0]*u[2,0]^2*sqrt(2*b*u[1,0]^2 + a)^-5"
COMMAND_CASES = {
    "verify-k3": ["verify", "--", K3],
    "verify-weight3-both": ["--interp", "both", "verify", "--", "x*u[1,0] - t*u[0,1] - 3*u"],
    "table": ["table"],
    "adjoint": ["adjoint"],
    "normalize-1d": ["normalize", "--", "2", "-1", "3"],
    "normalize-1d-c3zero": ["normalize", "--", "1", "2", "0"],
    "normalize-two": ["normalize", "--two", "1,0,0", "1,0,2"],
    "reduce-v1v2": ["reduce", "--rep=v1+2*v2"],
    "reduce-v3": ["reduce", "--rep=v3"],
    "flow-v3": ["flow", "--gen", "3"],
    "flow-combination": ["flow", "--gen=1,-2,3"],
}
# `verify` exits 1 when a candidate is not a symmetry
EXIT_CODES = {"verify-weight3-both": 1}
POINTS = {"sym": [], "a1-b1_2": ["--alpha", "1", "--beta", "1/2"]}
SUFFIX = {"text": "txt", "json": "json"}


def _golden_runs(cases):
    return [
        (
            f"{case}.{point}.{SUFFIX[fmt]}",
            POINTS[point] + ["--format", fmt] + argv,
            EXIT_CODES.get(case, 0),
        )
        for case, argv in cases.items()
        for point in POINTS
        for fmt in SUFFIX
    ]


GOLDEN_RUNS = _golden_runs(CASES)
COMMAND_RUNS = _golden_runs(COMMAND_CASES)

INPUT_ERRORS = [
    (
        ["solve", "u*sqrt(1+u^2),u*sqrt(2+u^2)"],
        "error: distinct radical kernels: sqrt(u^2 + 1) vs sqrt(u^2 + 2)\n",
    ),
    (
        ["--interp", "both", "solve", "u,x*u"],
        "error: --interp both applies to the order-3 and order-3-derived scans "
        "only; a custom basis takes --interp third or cubed\n",
    ),
]

FLOW_INPUT_ERRORS = [
    (["flow", "--gen", "4"], "error: generator index must be 1, 2 or 3, not '4'\n"),
    (["flow", "--gen", "0"], "error: generator index must be 1, 2 or 3, not '0'\n"),
    (["flow", "--gen=0,0,0"], "error: the zero combination generates no flow\n"),
]


def _run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def _check_golden(name, argv, exit_code, capsys):
    code, out, err = _run(argv, capsys)
    assert (code, err) == (exit_code, "")
    assert out == (GOLDEN / name).read_text()


@pytest.mark.parametrize("name,argv,exit_code", GOLDEN_RUNS, ids=[r[0] for r in GOLDEN_RUNS])
def test_solve_golden(name, argv, exit_code, capsys):
    _check_golden(name, argv, exit_code, capsys)


@pytest.mark.parametrize("name,argv,exit_code", COMMAND_RUNS, ids=[r[0] for r in COMMAND_RUNS])
def test_command_golden(name, argv, exit_code, capsys):
    _check_golden(name, argv, exit_code, capsys)


@pytest.mark.parametrize("argv,stderr", INPUT_ERRORS)
def test_solve_input_error(argv, stderr, capsys):
    code, out, err = _run(argv, capsys)
    assert (code, out, err) == (2, "", stderr)


@pytest.mark.parametrize("argv,stderr", FLOW_INPUT_ERRORS, ids=["index-4", "index-0", "zero-vector"])
def test_flow_input_error(argv, stderr, capsys):
    code, out, err = _run(argv, capsys)
    assert (code, out, err) == (2, "", stderr)


if __name__ == "__main__":
    import contextlib
    import io

    GOLDEN.mkdir(exist_ok=True)
    for name, argv, exit_code in GOLDEN_RUNS + COMMAND_RUNS:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(argv) == exit_code, argv
        (GOLDEN / name).write_text(buf.getvalue())
