"""Golden tests for every `jetlie` command: byte-exact text and JSON reports.

Each case runs at symbolic parameters and at alpha=1, beta=1/2 (the
Sakovich-Sakovich short pulse equation), in both output formats.  Each
input error runs in both formats too: in JSON mode its report is a golden.
The expected outputs live in tests/golden/; rewrite them after an intended
change of the reports with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from jetlie.cli import main

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"

CASES = {
    "point-affine": ["solve", "point-affine"],
    # the bounded order-2 scan; at sym its assumptions come in row order
    "order-2": ["solve", "order-2"],
    "order-3-both": ["--interp", "both", "solve", "order-3"],
    "order-3-derived": ["solve", "order-3-derived"],
    "custom-poly": ["solve", "u,x*u,u^2"],
    # nullspace pivot ties, and so the order of the assumptions, follow row order
    "custom-radical": ["solve", "u*sqrt(1+u^2),x*sqrt(1+u^2),u"],
    # the commas inside jet names do not split the basis list
    "custom-jets": ["solve", "u[1,0],u[0,1]"],
    # parameter multiples: one dimension, and two, over Q(alpha, beta) at every point
    "custom-param-multiple": ["solve", "b*u[1,0],u[1,0]"],
    "custom-param-sum": ["solve", "a*u[1,0]+u[0,1],u[1,0],u[0,1]"],
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
    # a large exponent that still fits its slot
    "verify-u40000": ["verify", "--", "u^40000"],
}
# `verify` exits 1 when a candidate is not a symmetry
EXIT_CODES = {"verify-weight3-both": 1, "verify-u40000": 1}
POINTS = {"sym": [], "a1-b1_2": ["--alpha", "1", "--beta", "1/2"]}
# the bounded scans at a point with a denominator-3 parameter
SCAN_POINTS = {"a5_2-b5_3": ["--alpha=5/2", "--beta=5/3"]}
SCAN_CASES = {"order-2": ["solve", "order-2"], "order-4": ["solve", "order-4"]}
SUFFIX = {"text": "txt", "json": "json"}


def _golden_runs(cases, points=POINTS):
    return [
        (
            f"{case}.{point}.{SUFFIX[fmt]}",
            points[point] + ["--format", fmt] + argv,
            EXIT_CODES.get(case, 0),
        )
        for case, argv in cases.items()
        for point in points
        for fmt in SUFFIX
    ]


GOLDEN_RUNS = _golden_runs(CASES) + _golden_runs(SCAN_CASES, SCAN_POINTS)
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

FLOW_INPUT_ERRORS = {
    "index-4": (["flow", "--gen", "4"], "error: generator index must be 1, 2 or 3, not '4'\n"),
    "index-0": (["flow", "--gen", "0"], "error: generator index must be 1, 2 or 3, not '0'\n"),
    "zero-vector": (["flow", "--gen=0,0,0"], "error: the zero combination generates no flow\n"),
}

COMMAND_INPUT_ERRORS = {
    "normalize-symbol": (["normalize", "1", "2", "x"], "error: bad coefficient vector '1 2 x'\n"),
    "normalize-zero-denominator": (
        ["normalize", "--", "1", "2", "1/0"],
        "error: bad coefficient vector '1 2 1/0'\n",
    ),
    "reduce-rep": (
        ["reduce", "--rep=garbage"],
        "error: unsupported representative 'garbage'; expected v1+a*v2, b*v1+v2 or v3\n",
    ),
    "verify-parse": (
        ["verify", "--", "u["],
        "error: expected a nonnegative integer (line 1, column 3)\n",
    ),
    "normalize-both": (
        ["normalize", "1", "2", "3", "--two", "1,0,0", "0,1,0"],
        "error: normalize takes three coefficients or --two, not both\n",
    ),
    "normalize-two-coefficients": (
        ["normalize", "1", "2"],
        "error: normalize needs three coefficients or --two\n",
    ),
    # an exponent beyond the range of a monomial slot, written or reached by a
    # product: in the input, or inside F'[q] for an exponent in range
    "verify-exponent-range": (
        ["verify", "--", "u^3000000000"],
        "error: exponent 3000000000 is out of range: |n| must be at most 2147483647 "
        "(line 1, column 3)\n",
    ),
    "verify-exponent-overflow": (
        ["verify", "--", "u^2000000000*u^2000000000"],
        "error: an intermediate exponent of u overflowed: |n| must be at most 2147483647\n",
    ),
    "verify-exponent-intermediate": (
        ["verify", "--", "u^2147483647"],
        "error: an intermediate exponent of u overflowed: |n| must be at most 2147483647\n",
    ),
    # a mixed jet is no coordinate of the solution manifold, in a candidate or
    # in a basis element
    "verify-mixed": (
        ["verify", "--", "u[1,1]"],
        "error: u_xt is a mixed derivative, not a coordinate of the solution manifold; "
        "write the characteristic in x, t, u, u[i,0] and u[0,j]\n",
    ),
    "solve-mixed": (
        ["solve", "u[1,1],u[1,0]"],
        "error: u_xt is a mixed derivative, not a coordinate of the solution manifold; "
        "write the characteristic in x, t, u, u[i,0] and u[0,j]\n",
    ),
    # the flow matrix of v3/2 has eigenvalues +-1/2
    "flow-half-eigenvalues": (
        ["flow", "--gen=0,0,1/2"],
        "error: matrix exponential needs integer eigenvalues; "
        "characteristic polynomial has a non-integer root\n",
    ),
}


def _error_runs(cases):
    """(id, argv, stdout golden, stderr) for each input error in text mode, where
    it is one line on stderr, and then in JSON mode, where it is a report on
    stdout."""
    text = [(case, argv, None, stderr) for case, (argv, stderr) in cases.items()]
    json_mode = [
        (f"{case}-json", ["--format", "json", *argv], f"error-{case}.json", "")
        for case, (argv, _stderr) in cases.items()
    ]
    return text + json_mode


FLOW_ERROR_RUNS = _error_runs(FLOW_INPUT_ERRORS)
COMMAND_ERROR_RUNS = _error_runs(COMMAND_INPUT_ERRORS)

# an option value that starts with '-' reads as in the `=` form
SIGNED_VALUES = [
    (["--alpha", "-5/2", "solve", "point-affine"], ["--alpha=-5/2", "solve", "point-affine"]),
    (["--format", "json", "--beta", "-1/3", "table"], ["--format", "json", "--beta=-1/3", "table"]),
    (["reduce", "--rep", "-1/2*v1+v2"], ["reduce", "--rep=-1/2*v1+v2"]),
    (["flow", "--gen", "-1,2,3"], ["flow", "--gen=-1,2,3"]),
    # an abbreviated option, resolved by argparse
    (["--alp", "-5/2", "table"], ["--alpha=-5/2", "table"]),
]
# a pair of `--two` vectors that starts with '-' spans the same subalgebra as
# the pair after it, and gets the same exit code and representative
SIGNED_PAIRS = [
    (["-1,0,0", "1,0,2"], ["1,0,0", "1,0,2"], 0),
    (["0,1,0", "-1,0,3"], ["0,1,0", "1,0,-3"], 0),
    # not a subalgebra
    (["-1,-1,0", "0,0,-1"], ["1,1,0", "0,0,1"], 2),
]
# a positional argument that starts with '-' still needs '--' before it
SIGNED_POSITIONALS = [(["verify", "-3*u"], 1), (["normalize", "-1/2", "1", "0"], 0)]

# the claimed radical candidate v4, as printed and at alpha=1, beta=1/2
V4 = "u[3,0]/sqrt(2*b*u[3,0]^2 + a)"
V4_POINT = "u[3,0]/sqrt(u[3,0]^2 + 1)"
# the verify claim rows a candidate matches: the fixtures take each call's
# parameters, so V4 matches at both points and V4_POINT only at its own;
# v4 is no symmetry, so each run exits 1
CLAIM_MATCHES = [
    ("sym", ["--interp", "both", "verify", "--", V4], ["v4[third]", "v4[cubed]"]),
    ("a1-b1_2", ["--interp", "both", "verify", "--", V4], ["v4[third]", "v4[cubed]"]),
    ("a1-b1_2", ["verify", "--", V4_POINT], ["v4[third]"]),
    ("sym", ["verify", "--", V4_POINT], []),
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


def _check_input_error(argv, golden, stderr, capsys):
    code, out, err = _run(argv, capsys)
    assert (code, out, err) == (2, (GOLDEN / golden).read_text() if golden else "", stderr)


@pytest.mark.parametrize(
    "argv,golden,stderr",
    [run[1:] for run in FLOW_ERROR_RUNS],
    ids=[run[0] for run in FLOW_ERROR_RUNS],
)
def test_flow_input_error(argv, golden, stderr, capsys):
    _check_input_error(argv, golden, stderr, capsys)


@pytest.mark.parametrize(
    "argv,golden,stderr",
    [run[1:] for run in COMMAND_ERROR_RUNS],
    ids=[run[0] for run in COMMAND_ERROR_RUNS],
)
def test_command_input_error(argv, golden, stderr, capsys):
    _check_input_error(argv, golden, stderr, capsys)


@pytest.mark.parametrize(
    "argv,joined", SIGNED_VALUES, ids=["alpha", "beta", "rep", "gen", "alpha-prefix"]
)
def test_signed_option_value(argv, joined, capsys):
    code, out, err = _run(argv, capsys)
    assert (code, err) == (0, "") and out
    assert _run(joined, capsys) == (code, out, err)


@pytest.mark.parametrize(
    "signed,plain,exit_code", SIGNED_PAIRS, ids=["lead", "second", "not-subalgebra"]
)
def test_signed_two_vectors(signed, plain, exit_code, capsys):
    results = []
    for pair in (signed, plain):
        code, out, err = _run(["--format", "json", "normalize", "--two", *pair], capsys)
        assert (code, err) == (exit_code, "")
        results.append(json.loads(out)["result"])
    assert ("representative" in results[0]) == (exit_code == 0)
    assert results[0].get("representative") == results[1].get("representative")


@pytest.mark.parametrize("argv,exit_code", SIGNED_POSITIONALS, ids=["verify", "normalize"])
def test_signed_positional_needs_double_dash(argv, exit_code, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error: " in capsys.readouterr().err
    code, out, err = _run([argv[0], "--", *argv[1:]], capsys)
    assert (code, err) == (exit_code, "") and out


def _claim_row_names(point, argv, capsys):
    code, out, err = _run(POINTS[point] + ["--format", "json"] + argv, capsys)
    assert (code, err) == (1, "")
    return [row["name"] for row in json.loads(out)["claims"]]


@pytest.mark.parametrize(
    "point,argv,rows",
    CLAIM_MATCHES,
    ids=["v4-both-sym", "v4-both-a1-b1_2", "v4-point-a1-b1_2", "v4-point-sym"],
)
def test_verify_claim_rows(point, argv, rows, capsys):
    names = _claim_row_names(point, argv, capsys)
    assert names == [f"claimed local symmetry {row}" for row in rows]


def test_verify_claim_rows_follow_each_call(capsys):
    """sym, then the point, then sym again in one process: no call's parameters
    stay behind in the claim fixtures of the next."""
    by_point = {point: [] for point in POINTS}
    for point, argv, rows in CLAIM_MATCHES:
        by_point[point].append((argv, rows))
    for point in ("sym", "a1-b1_2", "sym"):
        for argv, rows in by_point[point]:
            names = _claim_row_names(point, argv, capsys)
            assert names == [f"claimed local symmetry {row}" for row in rows], (point, argv)


def test_command_goldens_repeat_in_one_process(capsys):
    """Every command golden twice in one process, the second time in reverse
    order: nothing one call parses or builds leaks into the next."""
    for name, argv, exit_code in COMMAND_RUNS + COMMAND_RUNS[::-1]:
        _check_golden(name, argv, exit_code, capsys)


# A monomial's slot numbers follow the order in which a process first meets its
# symbols.  This process meets a K_ODE, a K_CONST, exp(eps), u_{x^12} and beta
# before alpha, ahead of every golden command; the reports must not change.
_SCRAMBLED = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from jetlie import expr, symbols as sy
for s in (sy.Z, sy.const("k"), sy.exp_eps(), sy.jet(12, 0), sy.BETA, sy.ALPHA):
    expr.symbol(s)
assert [sym for sym, _sign in expr._SLOT_SYM[:2]] == [sy.Z, sy.const("k")]
assert expr._OFFSET[sy.BETA] < expr._OFFSET[sy.ALPHA]
from jetlie.cli import main
out = {}
for name, argv in json.loads(sys.argv[2]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    out[name] = [code, buf.getvalue()]
print(json.dumps(out))
"""


def test_reports_do_not_depend_on_the_slot_order():
    runs = GOLDEN_RUNS + COMMAND_RUNS
    done = subprocess.run(
        [sys.executable, "-I", "-c", _SCRAMBLED, str(SRC), json.dumps([run[:2] for run in runs])],
        capture_output=True, text=True, timeout=300, check=True,
    )
    out = json.loads(done.stdout)
    for name, _argv, exit_code in runs:
        assert out[name] == [exit_code, (GOLDEN / name).read_text()], name


_MAIN = "import sys\nsys.path.insert(0, sys.argv[1])\nfrom jetlie.cli import main\nsys.exit(main(sys.argv[2:]))\n"


def test_a_closed_stdout_exits_141_without_a_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the report is written
    try:
        done = subprocess.run(
            [sys.executable, "-I", "-c", _MAIN, str(SRC), "--format", "json", "flow", "--gen", "2"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
        )
    finally:
        os.close(write_end)
    assert done.stderr == ""
    assert done.returncode == 141


if __name__ == "__main__":
    import contextlib
    import io

    GOLDEN.mkdir(exist_ok=True)
    error_runs = [
        (golden, argv, 2)
        for _id, argv, golden, _stderr in FLOW_ERROR_RUNS + COMMAND_ERROR_RUNS
        if golden
    ]
    for name, argv, exit_code in GOLDEN_RUNS + COMMAND_RUNS + error_runs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(argv) == exit_code, argv
        (GOLDEN / name).write_text(buf.getvalue())
