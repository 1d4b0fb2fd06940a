import random
from fractions import Fraction

import pytest

from jetlie import expr as ex
from jetlie import symbols as sy
from jetlie.jets import (
    Equation,
    JetOrderError,
    Manifold,
    expand_equation,
    free_total_dx,
)

x = ex.symbol(sy.X)
t = ex.symbol(sy.T)
u = ex.symbol(sy.U)
ux = ex.symbol(sy.jet(1, 0))
ut = ex.symbol(sy.jet(0, 1))
uxx = ex.symbol(sy.jet(2, 0))
ux3 = ex.symbol(sy.jet(3, 0))
alpha = ex.symbol(sy.ALPHA)
beta = ex.symbol(sy.BETA)

F_SYMBOLIC = alpha * u + 2 * beta * u * ux ** 2 + beta * u ** 2 * uxx


def test_expand_equation_symbolic():
    eq = expand_equation()
    assert eq.rhs == F_SYMBOLIC
    assert eq.point == {}


def test_expand_equation_oracle():
    # independent: differentiate u^3 twice by hand-rolled free derivatives
    u3 = u ** 3
    dx1 = free_total_dx(u3)
    assert dx1 == 3 * u ** 2 * ux
    dx2 = free_total_dx(dx1)
    assert dx2 == 6 * u * ux ** 2 + 3 * u ** 2 * uxx
    assert expand_equation().rhs == alpha * u + beta * dx2.scale(Fraction(1, 3))


def test_expand_equation_special_case():
    eq = expand_equation(1, Fraction(1, 2))
    assert eq.rhs == u + u * ux ** 2 + u ** 2 * uxx.scale(Fraction(1, 2))
    assert eq.point == {sy.ALPHA: 1, sy.BETA: Fraction(1, 2)}


def test_expand_equation_linear_case():
    eq = expand_equation(None, 0)
    assert eq.rhs == alpha * u
    assert eq.point == {sy.BETA: 0}


def test_equation_rejects_t_derivatives():
    with pytest.raises(ValueError):
        Equation(rhs=ut)


def test_equation_rejects_unsupported_symbols():
    with pytest.raises(ValueError, match="unsupported symbol x in equation"):
        Equation(rhs=x)


def test_reduce_mixed_first_consequences():
    man = Manifold()
    assert man.reduce_mixed(1, 1) == F_SYMBOLIC
    expected_uxxt = (
        alpha * ux + 2 * beta * ux ** 3 + 6 * beta * u * ux * uxx + beta * u ** 2 * ux3
    )
    assert man.reduce_mixed(2, 1) == expected_uxxt


def test_reduce_mixed_linear_closed_form():
    # with beta = 0 the consequences collapse to alpha^j * u_{x^(i-j)}
    man = Manifold(expand_equation(None, 0))
    for i in range(1, 5):
        for j in range(1, i + 1):
            expected = alpha ** j * ex.symbol(sy.jet(i - j, 0))
            assert man.reduce_mixed(i, j) == expected
    assert man.reduce_mixed(4, 2) == alpha ** 2 * uxx


def test_reduce_mixed_requires_mixed_coordinate():
    man = Manifold()
    with pytest.raises(ValueError):
        man.reduce_mixed(0, 1)


def test_order_cap():
    man = Manifold(max_order=3)
    with pytest.raises(JetOrderError) as err:
        man.reduce_mixed(2, 2)
    assert err.value.cap == 3
    with pytest.raises(JetOrderError):
        man.total_dx(ex.symbol(sy.jet(3, 0)))


def test_total_dx_basics():
    man = Manifold()
    assert man.total_dx(u) == ux
    assert man.total_dx(ut) == F_SYMBOLIC
    assert man.total_dt(ux) == man.total_dx(ut)


def test_commutation_on_manifold():
    man = Manifold()
    rng = random.Random(3)
    pool = [x, t, u, ux, ut, uxx, ex.symbol(sy.jet(0, 2)), alpha, beta]
    for _ in range(25):
        e = ex.ONE
        for _ in range(rng.randint(1, 3)):
            e = e * pool[rng.randrange(len(pool))]
        e = e + ex.constant(rng.randint(-3, 3))
        assert man.total_dx(man.total_dt(e)) == man.total_dt(man.total_dx(e))


def test_consistency_with_reduce():
    man = Manifold()
    for i in range(1, 4):
        assert man.total_dt(ex.symbol(sy.jet(i, 0))) == man.reduce_mixed(i, 1)
    for j in range(1, 4):
        assert man.total_dx(ex.symbol(sy.jet(0, j))) == man.reduce_mixed(1, j)


def test_memo_transparency():
    e = u * ux * ex.symbol(sy.jet(0, 2)) + x * uxx
    fresh = Manifold().total_dx(Manifold().total_dt(e))
    shared = Manifold()
    warm = shared.total_dx(shared.total_dt(e))
    assert fresh == warm


def _jet_values_of(f: ex.Expr, max_i: int, max_j: int):
    """Jet of an explicit polynomial f(x, t): {(i, j) -> Expr in x, t}."""
    values = {}
    for i in range(max_i + 1):
        g = f
        for _ in range(i):
            g = g.diff(sy.X)
        for j in range(max_j + 1):
            values[(i, j)] = g
            g = g.diff(sy.T)
    return values


def test_free_total_derivative_matches_explicit_function():
    # manufactured non-solution: u = x^3 t^2 + 2 x t
    f = x ** 3 * t ** 2 + 2 * x * t
    jets = _jet_values_of(f, 5, 5)

    def plug(e):
        return e.substitute(
            {sy.jet(i, j): val for (i, j), val in jets.items()}
        )

    e = u * ux + t * ex.symbol(sy.jet(1, 1)) + ux ** 2 * ut
    lhs = plug(free_total_dx(e))
    rhs = plug(e).diff(sy.X)
    assert lhs == rhs


def test_free_total_derivative_finite_difference():
    f = x ** 3 * t ** 2 + 2 * x * t
    jets = _jet_values_of(f, 5, 5)

    def plug(e):
        return e.substitute({sy.jet(i, j): val for (i, j), val in jets.items()})

    e = u * ux ** 2 + ex.symbol(sy.jet(1, 1)) * t
    g = plug(e)  # polynomial in x, t
    dg = plug(free_total_dx(e))
    x0, t0 = Fraction(1, 3), Fraction(2, 5)

    def fd(h):
        plus = g.eval_at({sy.X: x0 + h, sy.T: t0})
        minus = g.eval_at({sy.X: x0 - h, sy.T: t0})
        return (plus - minus) / (2 * h)

    exact = dg.eval_at({sy.X: x0, sy.T: t0})
    err1 = abs(fd(Fraction(1, 10)) - exact)
    err2 = abs(fd(Fraction(1, 20)) - exact)
    assert err2 * 3 < err1  # O(h^2) convergence
