"""Property tests for the expression kernel primitives.

`mono_mul` and `mono_div` merge sorted power tuples; they must agree with
`monomial()`, the validating constructor, on every symbol kind.  `Expr`
arithmetic must satisfy the ring laws and `diff_atom` the Leibniz rule, on
polynomials and on expressions over one radical kernel.  `Sym` caches its
hash and sort key, which must not depend on how a symbol was built.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from jetlie import expr as ex  # noqa: E402
from jetlie import symbols as sy  # noqa: E402
from jetlie.expr import ExprError, mono_div, mono_mul, monomial  # noqa: E402

SETTINGS = settings(derandomize=True, max_examples=100, deadline=None)
EXPR_SETTINGS = settings(derandomize=True, max_examples=40, deadline=None)

# at least one symbol of every kind, in no particular order
SYMBOLS = [
    sy.T,
    sy.X,
    sy.U,
    sy.jet(1, 0),
    sy.jet(0, 1),
    sy.jet(2, 1),
    sy.ALPHA,
    sy.BETA,
    sy.const("c1"),
    sy.const("c2"),
    sy.opaque("F", (sy.X, sy.U), (0, 0)),
    sy.opaque("F", (sy.X, sy.U), (1, 2)),
    sy.Z,
    sy.ode_w(1),
    sy.eps(),
    sy.exp_eps(),
    sy.exp_eps("delta"),
]
KINDS = {s.kind for s in SYMBOLS}


def test_symbols_cover_every_kind():
    assert KINDS == set(range(sy.K_VAR, sy.K_EXP + 1))


def _power(s):
    if sy.allows_negative_power(s):
        return st.tuples(st.just(s), st.integers(-3, 3).filter(bool))
    return st.tuples(st.just(s), st.integers(1, 3))


monomials = st.lists(st.sampled_from(SYMBOLS).flatmap(_power), max_size=6).map(monomial)


def _assert_invariant(m):
    """The `Monomial` invariant: sorted, no repeats, no zero exponents."""
    keys = [s.sort_key() for s, _ in m.powers]
    assert keys == sorted(set(keys))
    for s, e in m.powers:
        assert e > 0 or (e < 0 and sy.allows_negative_power(s))


def _assert_normal(e):
    for m, _k in e.terms:
        _assert_invariant(m)


def _reference_div(m, d):
    return monomial(m.powers + tuple((s, -e) for s, e in d.powers))


@SETTINGS
@given(monomials, monomials)
def test_mono_mul_matches_monomial(m1, m2):
    product = mono_mul(m1, m2)
    _assert_invariant(product)
    assert product.powers == monomial(m1.powers + m2.powers).powers


@SETTINGS
@given(monomials, monomials)
def test_mono_div_matches_monomial(m, d):
    try:
        expected = _reference_div(m, d)
    except ExprError as err:
        with pytest.raises(ExprError) as info:
            mono_div(m, d)
        assert str(info.value) == str(err)
    else:
        quotient = mono_div(m, d)
        _assert_invariant(quotient)
        assert quotient.powers == expected.powers


@SETTINGS
@given(monomials, monomials)
def test_mono_div_inverts_mono_mul(m1, m2):
    assert mono_div(mono_mul(m1, m2), m2) == m1


def test_exp_exponents_cancel_to_nothing():
    e = sy.exp_eps()
    x = monomial([(sy.X, 1), (e, -2)])
    assert mono_mul(x, monomial([(e, 2)])).powers == ((sy.X, 1),)
    assert mono_div(x, monomial([(e, -2)])).powers == ((sy.X, 1),)
    assert mono_div(monomial([(e, 1)]), monomial([(e, 1)])) == ex.MONE


def test_negative_quotient_names_the_symbol_of_the_dividend_first():
    m = monomial([(sy.T, 1)])
    d = monomial([(sy.X, 1), (sy.T, 2)])
    with pytest.raises(ExprError, match="negative exponent on t"):
        mono_div(m, d)
    with pytest.raises(ExprError, match="negative exponent on x"):
        mono_div(ex.MONE, monomial([(sy.X, 1), (sy.U, 1)]))


# -- Expr ring laws and the Leibniz rule ---------------------------------------

ATOMS = [sy.X, sy.U, sy.jet(1, 0), sy.ALPHA]
KERNEL = (
    ex.constant(2) * ex.symbol(sy.BETA) * ex.symbol(sy.jet(1, 0)) ** 2
    + ex.symbol(sy.ALPHA)
)
ROOT = ex.sqrt(KERNEL)

coefficients = st.fractions(min_value=-3, max_value=3, max_denominator=4)
terms = st.tuples(
    coefficients, st.lists(st.tuples(st.sampled_from(ATOMS), st.integers(1, 2)), max_size=3)
)


def _poly(pieces):
    total = ex.ZERO
    for c, powers in pieces:
        total = total + ex.constant(c) * ex.Expr({(monomial(powers), 0): Fraction(1)}, None)
    return total


polys = st.lists(terms, max_size=4).map(_poly)
# odd positive strata keep every product representable
radicals = st.tuples(polys, polys, st.sampled_from([1, 3])).map(
    lambda p: p[0] + p[1] * ROOT ** p[2]
)
exprs = st.one_of(polys, radicals)


@EXPR_SETTINGS
@given(exprs, exprs, exprs)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a - a).is_zero()
    assert a + ex.ZERO == a
    assert a * ex.ONE == a


@EXPR_SETTINGS
@given(exprs, exprs, st.sampled_from(ATOMS + [sy.BETA, sy.T]))
def test_diff_atom_leibniz(a, b, s):
    for e in (a * b, a.diff_atom(s), (a * b).diff_atom(s)):
        _assert_normal(e)
    assert (a * b).diff_atom(s) == a.diff_atom(s) * b + a * b.diff_atom(s)
    assert (a + b).diff_atom(s) == a.diff_atom(s) + b.diff_atom(s)


@EXPR_SETTINGS
@given(polys, st.sampled_from([-3, -1, 1, 3]), st.sampled_from(ATOMS + [sy.BETA]))
def test_diff_atom_of_a_radical_power(p, k, s):
    # d(p R^(k/2)) = p' R^(k/2) + p (k/2) R' R^(k/2 - 1)
    half_k = ex.constant(Fraction(k, 2))
    expected = p.diff_atom(s) * ROOT ** k + p * half_k * KERNEL.diff_atom(s) * ROOT ** (k - 2)
    assert (p * ROOT ** k).diff_atom(s) == expected


def test_diff_atom_lowers_the_exponent():
    x, u = ex.symbol(sy.X), ex.symbol(sy.U)
    assert (x ** 2 * u).diff_atom(sy.X) == ex.constant(2) * x * u
    assert x.diff_atom(sy.X) == ex.ONE
    assert (x * u).diff_atom(sy.U) == x


# -- cached Sym hash and sort key ---------------------------------------------------


@pytest.mark.parametrize(
    "make",
    [
        lambda: (sy.Sym(sy.K_JET, (1, 0)), sy.jet(1)),
        lambda: (sy.opaque("F", (sy.X, sy.U), (1, 0)), sy.opaque("F", (sy.X, sy.U), (1, 0))),
        lambda: (sy.const("c1"), sy.Sym(sy.K_CONST, ("c1",))),
        lambda: (sy.exp_eps(), sy.Sym(sy.K_EXP, ("eps",))),
    ],
    ids=["jet", "opaque", "const", "exp"],
)
def test_separately_built_symbols_agree(make):
    s1, s2 = make()
    assert s1 is not s2
    assert s1 == s2
    assert hash(s1) == hash(s2)
    assert s1.sort_key() == s2.sort_key()
    assert not s1 < s2 and not s2 < s1
    for s in (s1, s2):
        assert hash(s) == hash((s.kind, s.data))
        assert s.sort_key() == (s.kind, s.data)


def test_symbol_order_follows_sort_key():
    ordered = sorted(SYMBOLS, key=lambda s: (s.kind, s.data))
    assert sorted(SYMBOLS) == ordered
    for a, b in zip(ordered, ordered[1:]):
        assert a < b and not b < a
