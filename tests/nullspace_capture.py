"""Capture what `linear_solve` hands `nullspace`, for tests that compare rows."""

from jetlie import linsolve


def with_rows(solve, *args):
    """solve(*args), and the rows that `linear_solve` handed `nullspace`, in order:
    one list per call."""
    handed = []
    nullspace = linsolve.nullspace

    def capture(rows, ncols):
        handed.append(list(rows))
        return nullspace(rows, ncols)

    linsolve.nullspace = capture
    try:
        out = solve(*args)
    finally:
        linsolve.nullspace = nullspace
    return out, handed
