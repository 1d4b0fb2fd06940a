"""Golden tests for `jetlie solve`: byte-exact text and JSON reports.

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
POINTS = {"sym": [], "a1-b1_2": ["--alpha", "1", "--beta", "1/2"]}
SUFFIX = {"text": "txt", "json": "json"}

GOLDEN_RUNS = [
    (f"{case}.{point}.{SUFFIX[fmt]}", POINTS[point] + ["--format", fmt] + argv)
    for case, argv in CASES.items()
    for point in POINTS
    for fmt in SUFFIX
]

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


def _run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("name,argv", GOLDEN_RUNS, ids=[n for n, _ in GOLDEN_RUNS])
def test_solve_golden(name, argv, capsys):
    code, out, err = _run(argv, capsys)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / name).read_text()


@pytest.mark.parametrize("argv,stderr", INPUT_ERRORS)
def test_solve_input_error(argv, stderr, capsys):
    code, out, err = _run(argv, capsys)
    assert (code, out, err) == (2, "", stderr)


if __name__ == "__main__":
    import contextlib
    import io

    GOLDEN.mkdir(exist_ok=True)
    for name, argv in GOLDEN_RUNS:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(argv) == 0, argv
        (GOLDEN / name).write_text(buf.getvalue())
