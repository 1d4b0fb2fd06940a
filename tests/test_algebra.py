import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetlie import expr as ex
from jetlie import symbols as sy
from jetlie.algebra import (
    AdjointMap,
    AlgebraError,
    SubalgebraError,
    ad_matrix,
    adjoint_exp,
    apply_adjoint_at,
    exact_matrix_exp,
    normalize_1d,
    normalize_2d,
    preserves_structure,
    replay_steps,
)
from jetlie.fields import PointVectorField, structure_table

F = Fraction
x = ex.symbol(sy.X)
t = ex.symbol(sy.T)
u = ex.symbol(sy.U)

V1 = PointVectorField(ex.ONE, ex.ZERO, ex.ZERO)
V2 = PointVectorField(ex.ZERO, ex.ONE, ex.ZERO)
V3 = PointVectorField(x, -t, u)  # derived weight


@pytest.fixture(scope="module")
def table():
    return structure_table([V1, V2, V3])


def test_ad_matrices(table):
    ad3 = ad_matrix(table, 2)
    assert ad3 == [[F(-1), 0, 0], [0, F(1), 0], [0, 0, 0]]
    ad1 = ad_matrix(table, 0)
    # nilpotent: only [v1, v3] = v1
    assert ad1[0][2] == 1
    sq = [[sum(ad1[i][k] * ad1[k][j] for k in range(3)) for j in range(3)] for i in range(3)]
    assert all(v == 0 for row in sq for v in row)


def test_abelian_ad_is_zero():
    tab = structure_table([V1, V2])
    assert ad_matrix(tab, 0) == [[0, 0], [0, 0]]


def _mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


@st.composite
def _jordan_conjugates(draw, n):
    """An n x n matrix P J P^-1 with J an integer Jordan form, its eigenvalues in
    [-3, 3], and P a product of elementary integer row operations and scalings."""
    sizes = []
    while sum(sizes) < n:
        sizes.append(draw(st.integers(1, n - sum(sizes))))
    a = [[F(0)] * n for _ in range(n)]
    start = 0
    for size in sizes:
        lam = draw(st.integers(-3, 3))
        for i in range(start, start + size):
            a[i][i] = F(lam)
            if i + 1 < start + size:
                a[i][i + 1] = F(1)
        start += size
    if n > 1:
        for _ in range(draw(st.integers(0, 3))):
            i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            c = F(draw(st.integers(-2, 2)))
            e = [[F(r == k) for k in range(n)] for r in range(n)]
            e_inv = [row[:] for row in e]
            if draw(st.booleans()):  # add c * row j to row i
                e[i][j], e_inv[i][j] = c, -c
            else:  # scale row i by d != 0
                d = c or F(2)
                e[i][i], e_inv[i][i] = d, 1 / d
            a = _mul(_mul(e, a), e_inv)
    return a


@st.composite
def _affine_flows(draw):
    """The 4 x 4 matrix of an affine field: a 3 x 3 block, a translation column, a zero row."""
    block = draw(_jordan_conjugates(3))
    shift = [F(draw(st.integers(-3, 3))) for _ in range(3)]
    return [row + [c] for row, c in zip(block, shift)] + [[F(0)] * 4]


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.one_of(st.integers(1, 4).flatmap(_jordan_conjugates), _affine_flows()))
def test_exact_matrix_exp_solves_its_ode(a):
    """Y = exp(eps*A) is I at eps = 0 and satisfies dY/deps = A*Y, with
    d/deps = partial/partial eps + exp(eps) * partial/partial exp(eps)."""
    n = len(a)
    eps, e = sy.eps("e"), sy.exp_eps("e")
    y = exact_matrix_exp(a, "e")
    at_zero = {eps: ex.ZERO, e: ex.ONE}
    for i in range(n):
        for j in range(n):
            assert y[i][j].substitute(at_zero) == (ex.ONE if i == j else ex.ZERO)
            derivative = y[i][j].diff(eps) + ex.symbol(e) * y[i][j].diff(e)
            assert derivative == sum((y[k][j].scale(a[i][k]) for k in range(n)), ex.ZERO)


@pytest.mark.parametrize(
    "a",
    [[[F(0), F(1)], [F(-1), F(0)]], [[F(1, 2)]]],  # eigenvalues +-i, and 1/2
    ids=["imaginary", "half"],
)
def test_exact_matrix_exp_needs_integer_eigenvalues(a):
    with pytest.raises(AlgebraError, match="^matrix exponential needs integer eigenvalues; "):
        exact_matrix_exp(a)


def test_exact_matrix_exp_nilpotent():
    nil = [[F(0), F(1)], [F(0), F(0)]]
    m = exact_matrix_exp(nil, "e")
    eps = ex.symbol(sy.eps("e"))
    assert m[0][0] == ex.ONE
    assert m[0][1] == eps
    assert m[1][1] == ex.ONE
    # a translation by a large step has one eigenvalue, 0, to try
    m = exact_matrix_exp([[F(0), F(10**12)], [F(0), F(0)]], "e")
    assert m[0][1] == eps.scale(10**12)


def test_exact_matrix_exp_diagonal():
    d = [[F(2), F(0)], [F(0), F(-1)]]
    m = exact_matrix_exp(d, "e")
    e = ex.symbol(sy.exp_eps("e"))
    assert m[0][0] == e ** 2
    assert m[1][1] == e ** -1
    assert m[0][1].is_zero()


def test_exact_matrix_exp_jordan_block():
    a = [[F(1), F(1)], [F(0), F(1)]]
    m = exact_matrix_exp(a, "e")
    e = ex.symbol(sy.exp_eps("e"))
    eps = ex.symbol(sy.eps("e"))
    assert m[0][0] == e
    assert m[0][1] == e * eps
    assert m[1][1] == e


def test_adjoint_maps_reproduce_closed_forms(table):
    # F2 matches the claimed pattern literally; F1 and F3 match under
    # the reparameterization eps -> -eps
    eps = ex.symbol(sy.eps("eps"))
    e = ex.symbol(sy.exp_eps("eps"))
    f1 = adjoint_exp(table, 0)
    assert f1.matrix[0][2] == -eps  # (c1 - eps c3, c2, c3)
    assert f1.matrix[0][0] == ex.ONE and f1.matrix[1][1] == ex.ONE
    f2 = adjoint_exp(table, 1)
    assert f2.matrix[1][2] == eps  # (c1, c2 + eps c3, c3): exact match
    f3 = adjoint_exp(table, 2)
    assert f3.matrix[0][0] == e and f3.matrix[1][1] == e ** -1
    assert f3.matrix[2][2] == ex.ONE


def test_adjoint_exp_is_automorphism(table):
    for i in range(3):
        m = adjoint_exp(table, i)
        assert preserves_structure(table, m.matrix)
        assert m.is_identity_at_zero()


def test_adjoint_inverse_composes_to_identity(table):
    for i in range(3):
        m = adjoint_exp(table, i, "eps")
        inv = [
            [
                entry.substitute(
                    {
                        sy.eps("eps"): -ex.symbol(sy.eps("eps")),
                        sy.exp_eps("eps"): ex.symbol(sy.exp_eps("eps")) ** -1,
                    }
                )
                for entry in row
            ]
            for row in m.matrix
        ]
        prod = [
            [
                sum((m.matrix[r][k] * inv[k][c] for k in range(3)), ex.ZERO)
                for c in range(3)
            ]
            for r in range(3)
        ]
        for r in range(3):
            for c in range(3):
                assert prod[r][c] == (ex.ONE if r == c else ex.ZERO)


def test_adjoint_lie_series_example(table):
    # Ad(exp(eps v1)) v3 = v3 - eps v1: series truncates at the linear term
    got = apply_adjoint_at(table, 0, F(1), (F(0), F(0), F(1)))
    assert got == (F(-1), F(0), F(1))


def test_normalize_1d_examples(table):
    r = normalize_1d(table, (0, 0, 5))
    assert r.representative == (0, 0, 1) and r.family == "v3"
    assert r.steps == [("scale", F(1, 5))]

    r = normalize_1d(table, (1, 1, 4))
    assert r.representative == (0, 0, 1)
    assert ("adjoint", 0, F(1, 4)) in r.steps
    assert ("adjoint", 1, F(-1, 4)) in r.steps
    assert ("scale", F(1, 4)) in r.steps

    r = normalize_1d(table, (2, 3, 0))
    assert r.family == "v1 + a*v2"
    assert r.representative == (1, F(3, 2), 0)
    assert r.parameter == F(3, 2)
    assert r.steps == [("scale", F(1, 2))]

    r = normalize_1d(table, (0, 7, 0))
    assert r.family == "b*v1 + v2"
    assert r.representative == (0, 1, 0)
    assert r.parameter == 0


def test_normalize_1d_zero_rejected(table):
    with pytest.raises(AlgebraError):
        normalize_1d(table, (0, 0, 0))


def test_normalize_1d_witness_and_idempotence(table):
    rng = random.Random(17)
    for _ in range(300):
        c = tuple(F(rng.randint(-8, 8), rng.randint(1, 5)) for _ in range(3))
        if not any(c):
            continue
        r = normalize_1d(table, c)
        assert replay_steps(table, c, r.steps) == r.representative
        again = normalize_1d(table, r.representative)
        assert again.representative == r.representative
        # orbit invariants
        assert (c[2] != 0) == (r.family == "v3")
        if c[2] == 0:
            rep = r.representative
            sign_in = (c[0] * c[1] > 0) - (c[0] * c[1] < 0)
            sign_out = (rep[0] * rep[1] > 0) - (rep[0] * rep[1] < 0)
            assert sign_in == sign_out


def test_normalize_2d_representatives(table):
    r = normalize_2d(table, (1, 0, 0), (0, 1, 0))
    assert r.representative == ("v1", "v2")
    r = normalize_2d(table, (2, 0, 0), (1, 0, 5))
    assert r.representative == ("v1", "v3")
    r = normalize_2d(table, (0, 3, 0), (0, 1, 1))
    assert r.representative == ("v2", "v3")


def test_normalize_2d_rejections(table):
    with pytest.raises(SubalgebraError) as err:
        normalize_2d(table, (1, 1, 0), (0, 0, 1))
    assert err.value.bracket == (1, -1, 0)
    with pytest.raises(AlgebraError):
        normalize_2d(table, (1, 0, 0), (2, 0, 0))  # not 2-dimensional
