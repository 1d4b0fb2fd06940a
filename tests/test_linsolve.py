import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from jetlie import expr as ex
from jetlie import symbols as sy
from jetlie.linsolve import (
    _assumption,
    linear_solve,
    rational_rref,
    rational_solve,
)
from nullspace_capture import with_rows

alpha = ex.symbol(sy.ALPHA)
beta = ex.symbol(sy.BETA)
x = ex.symbol(sy.X)
u = ex.symbol(sy.U)
ux = ex.symbol(sy.jet(1, 0))


def columns(*equations):
    """Columns of the system  sum_j eq[j] * c_j = 0, one equation per argument.

    Equation i is multiplied by x^i, so distinct equations land in distinct rows.
    """
    return [
        sum((ex.as_expr(eq[j]) * x ** i for i, eq in enumerate(equations)), ex.ZERO)
        for j in range(len(equations[0]))
    ]


def rational_nullspace(a):
    """Nullspace basis of a dense rational matrix, read off its rref: the oracle
    the parametric `linear_solve` is checked against."""
    ncols = len(a[0]) if a else 0
    rref, pivots = rational_rref(a)
    free = [c for c in range(ncols) if c not in pivots]
    out = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for i, c in enumerate(pivots):
            vec[c] = -rref[i][f]
        out.append(vec)
    return out


def combination(vec, cols):
    return sum((v * col for v, col in zip(vec, cols)), ex.ZERO)


def test_only_zero_solution():
    sol = linear_solve(columns([1, 1], [1, -1]))
    assert sol.basis == []


def test_parameter_pivot_records_assumption():
    sol = linear_solve([beta])
    assert sol.basis == []
    assert sol.assumptions == ["beta != 0"]


def test_one_dimensional_nullspace():
    # c1 + c2 = 0 only
    sol = linear_solve([ex.ONE, ex.ONE])
    assert len(sol.basis) == 1
    vec = sol.basis[0]
    assert vec[0] == -vec[1]


def test_coefficient_collection_splits_coordinates():
    # (u) * c1 + (u) * c2 = 0 and (ux) * (c1 - c2) = 0 force c1 = c2 = 0
    sol = linear_solve([u + ux, u - ux])
    assert sol.basis == []


def test_parameter_dependent_solution():
    # c1 + beta*c2 = 0 has the line (beta, -1) over the fraction field
    sol = linear_solve([u, beta * u])
    assert len(sol.basis) == 1
    vec = sol.basis[0]
    # the vector is polynomial in beta after clearing: (beta, -1) up to sign
    assert (vec[0] + beta * vec[1]).is_zero()


def test_radical_columns_share_the_lowest_stratum():
    # K^(-3/2), K^(-5/2) and (1 - K) K^(-5/2) sit at two radical strata; only
    # after moving every column to K^(-5/2) does c1 - c2 + c3 = 0 show up
    kernel = ex.constant(2) * beta * ux ** 2 + alpha
    root = ex.sqrt(kernel)
    cols = [root ** -3, root ** -5, (1 - kernel) * root ** -5]
    sol = linear_solve(cols)
    assert len(sol.basis) == 1
    vec = sol.basis[0]
    assert not vec[0].is_zero() and vec[1] == -vec[0] and vec[2] == vec[0]
    assert combination(vec, cols).is_zero()


def test_random_systems_against_rational_oracle():
    rng = random.Random(7)
    for trial in range(60):
        n_unk = rng.randint(1, 5)
        n_eq = rng.randint(1, 6)
        coeffs = [[Fraction(rng.randint(-3, 3)) for _ in range(n_unk)] for _ in range(n_eq)]
        cols = columns(*coeffs)
        sol = linear_solve(cols)
        # every basis vector must satisfy the system identically
        for vec in sol.basis:
            assert combination(vec, cols).is_zero()
        # dimension matches the dense rational computation
        assert len(sol.basis) == len(rational_nullspace(coeffs))


def test_random_parameter_systems_verify_identically():
    rng = random.Random(11)
    for trial in range(40):
        n_unk = rng.randint(1, 4)
        n_eq = rng.randint(1, 4)
        system = []
        for _ in range(n_eq):
            eq = []
            for _ in range(n_unk):
                c = ex.constant(rng.randint(-2, 2))
                if rng.random() < 0.5:
                    c = c * alpha
                if rng.random() < 0.3:
                    c = c * beta
                eq.append(c)
            system.append(eq)
        cols = columns(*system)
        sol = linear_solve(cols)
        for vec in sol.basis:
            assert combination(vec, cols).is_zero()


def test_rational_rref_and_solve():
    a = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    b = [Fraction(3), Fraction(6)]
    x, residual = rational_solve(a, b)
    assert x is not None and not any(residual)
    bad = [Fraction(3), Fraction(7)]
    x, residual = rational_solve(a, bad)
    assert x is None and any(residual)


def test_rational_nullspace_dim():
    a = [[Fraction(1), Fraction(1), Fraction(0)]]
    ns = rational_nullspace(a)
    assert len(ns) == 2
    for vec in ns:
        assert sum(a[0][j] * vec[j] for j in range(3)) == 0


def test_entries_and_rows_that_vanish_at_the_point_are_dropped():
    # at alpha = 2*beta column 0 vanishes, and so does column 1's entry in row x
    cols = [alpha * u - 2 * beta * u, alpha * x - 2 * beta * x + ux, x]
    point = {sy.ALPHA: Fraction(2), sy.BETA: Fraction(1)}
    one = (ex.MONE, 0)
    sol, rows = with_rows(linear_solve, iter(cols), point)
    assert rows == [[{1: {one: 1}}, {2: {one: 1}}]]
    assert (sol.basis, sol.assumptions, sol.rank) == ([[ex.ONE, ex.ZERO, ex.ZERO]], [], 2)
    # the same columns built at the point
    at_point = [col.substitute({sy.ALPHA: ex.constant(2), sy.BETA: ex.ONE}) for col in cols]
    assert linear_solve(at_point) == sol
    # off the line every entry stays
    off_line = {sy.ALPHA: Fraction(1, 3), sy.BETA: Fraction(1)}
    sol, rows = with_rows(linear_solve, iter(cols), off_line)
    third = Fraction(-5, 3)
    assert rows == [[{0: {one: third}}, {1: {one: third}, 2: {one: 1}}, {1: {one: 1}}]]
    assert sol.basis == []


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    st.fractions().filter(lambda c: c != 0),
    st.integers(0, 6),
    st.integers(0, 6),
)
def test_a_one_term_parameter_monomial_gives_no_assumption(c, a, b):
    entry = ex.Expr({(ex.monomial([(sy.ALPHA, a), (sy.BETA, b)]), 0): ex._q(c)}, None)
    assert _assumption(entry) is None
