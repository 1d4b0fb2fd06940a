from fractions import Fraction

import pytest

from jetlie import expr as ex
from jetlie import symbols as sy
from jetlie.expr import ExprError, KernelConflictError
from jetlie.printer import grammar

x = ex.symbol(sy.X)
t = ex.symbol(sy.T)
u = ex.symbol(sy.U)
ux = ex.symbol(sy.jet(1, 0))
ut = ex.symbol(sy.jet(0, 1))
uxx = ex.symbol(sy.jet(2, 0))
ux3 = ex.symbol(sy.jet(3, 0))
alpha = ex.symbol(sy.ALPHA)
beta = ex.symbol(sy.BETA)


def kernel():
    return ex.constant(2) * beta * ux3 ** 2 + alpha


def test_binomial_identity_normalizes_to_zero():
    e = (ux + ut) ** 2 - ux ** 2 - 2 * ux * ut - ut ** 2
    assert e.is_zero()


def test_commutative_merge():
    assert alpha * u + u * alpha == 2 * alpha * u


def test_kernel_times_inverse_sqrt_collapses():
    r = kernel()
    inv_sqrt = ex.sqrt(r) ** -1
    e = r * inv_sqrt
    assert e == ex.sqrt(r)


def test_even_negative_radical_power_rejected():
    r = ex.sqrt(kernel())
    with pytest.raises(ExprError):
        (r ** -1) * (r ** -1)


def test_distinct_kernels_rejected():
    r1 = ex.sqrt(kernel())
    r2 = ex.sqrt(alpha * u + beta)
    with pytest.raises(KernelConflictError) as err:
        r1 + r2
    assert "sqrt" in str(err.value)


def test_square_content_extraction():
    assert ex.sqrt(4 * kernel()) == 2 * ex.sqrt(kernel())
    assert ex.sqrt(ex.constant(4)) == ex.constant(2)
    assert ex.sqrt(ex.constant(Fraction(9, 4))) == ex.constant(Fraction(3, 2))


def test_diff_power_rule():
    e = beta * u ** 2 * ux ** 2
    assert e.diff(sy.jet(1, 0)) == 2 * beta * u ** 2 * ux


def test_diff_radical_chain_rule():
    r = kernel()
    e = ex.sqrt(r)
    expected = 2 * beta * ux3 * ex.sqrt(r) ** -1
    assert e.diff(sy.jet(3, 0)) == expected


def test_diff_scaling_candidate():
    q = x * ux - t * ut - 3 * u
    assert q.diff(sy.U) == ex.constant(-3)


def test_diff_commutes():
    e = x * u ** 3 * ux ** 2 + beta * t * ut ** 4 + alpha * u * uxx
    for s1 in (sy.X, sy.U, sy.jet(1, 0), sy.jet(0, 1)):
        for s2 in (sy.T, sy.U, sy.jet(2, 0), sy.ALPHA):
            assert e.diff(s1).diff(s2) == e.diff(s2).diff(s1)


def test_substitute_zero():
    e = ux * ut
    assert e.substitute({sy.jet(1, 0): ex.ZERO}).is_zero()


def test_substitute_parameters():
    e = alpha * u + 2 * beta * u * ux ** 2 + beta * u ** 2 * uxx
    got = e.substitute({sy.ALPHA: ex.ONE, sy.BETA: ex.constant(Fraction(1, 2))})
    assert got == u + u * ux ** 2 + ex.constant(Fraction(1, 2)) * u ** 2 * uxx


def test_substitute_shift():
    e = x * ux
    got = e.substitute({sy.X: x + 1})
    assert got == x * ux + ux


def test_substitute_rescales_radicand():
    e = ex.sqrt(kernel())
    got = e.substitute({sy.BETA: ex.constant(2)})
    assert got == ex.constant(2) * ex.sqrt(ux3 ** 2 + ex.constant(Fraction(1, 4)) * alpha)
    # evaluating both ways agrees
    pt = {sy.jet(3, 0): Fraction(1), sy.ALPHA: Fraction(4)}
    lhs = got.eval_at(pt, floating=True)
    rhs = e.eval_at({**pt, sy.BETA: Fraction(2)}, floating=True)
    assert abs(lhs - rhs) < 1e-12


def test_eval_exact():
    e = alpha * u + beta * u ** 2
    val = e.eval_at({sy.ALPHA: Fraction(2), sy.BETA: Fraction(3), sy.U: Fraction(1)})
    assert val == 5


def test_eval_sqrt_exact():
    e = ex.sqrt(kernel())
    val = e.eval_at({sy.BETA: Fraction(1, 2), sy.jet(3, 0): Fraction(0), sy.ALPHA: Fraction(4)})
    assert val == 2


def test_eval_errors():
    e = alpha * u
    with pytest.raises(ExprError):
        e.eval_at({sy.ALPHA: Fraction(1)})
    r = ex.sqrt(kernel())
    with pytest.raises(ExprError):
        r.eval_at({sy.BETA: Fraction(1), sy.jet(3, 0): Fraction(0), sy.ALPHA: Fraction(-1)})
    with pytest.raises(ExprError):
        r.eval_at({sy.BETA: Fraction(1), sy.jet(3, 0): Fraction(0), sy.ALPHA: Fraction(2)})
    assert r.eval_at(
        {sy.BETA: Fraction(1), sy.jet(3, 0): Fraction(0), sy.ALPHA: Fraction(2)},
        floating=True,
    ) == pytest.approx(2 ** 0.5)


def test_primitive_and_content():
    e = 4 * beta * u ** 2 * ux + 2 * beta * u ** 3
    rat, mono = e.content()
    assert rat == 2
    prim = e.primitive()
    assert prim == 2 * ux + u  # content 2*beta*u^2 removed


def test_collect_groups_by_selected_symbols():
    e = alpha * uxx * u + beta * uxx ** 2 + u * ut
    groups = e.collect(lambda s: s == sy.jet(2, 0))
    key2 = ex.monomial(((sy.jet(2, 0), 2),))
    key1 = ex.monomial(((sy.jet(2, 0), 1),))
    assert groups[key2] == beta
    assert groups[key1] == alpha * u
    assert groups[ex.MONE] == u * ut


def test_strata_split():
    r = kernel()
    e = u + 3 * ux * ex.sqrt(r) ** -1
    strata = e.strata()
    assert strata[0] == u
    assert strata[-1] == 3 * ux


def test_pow_negative_only_single_term():
    with pytest.raises(ExprError):
        (u + ux) ** -1
    assert ex.constant(2) ** -1 == ex.constant(Fraction(1, 2))


def test_grammar_strings():
    e = ux ** 2 + alpha * u
    assert grammar(e) == "u*a + u[1,0]^2"
    e2 = x * ux - t * ut - 3 * u
    assert grammar(e2) == "x*u[1,0] - t*u[0,1] - 3*u"
