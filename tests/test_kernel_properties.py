"""Property tests for the expression kernel primitives.

`mono_mul` and `mono_div` add and subtract packed exponent vectors; they must
agree with `monomial()`, the validating constructor, on every symbol kind,
and raise `ExprError` instead of wrapping when an exponent leaves its slot.
`grlex_key` must sort as `mono_cmp`, the comparison of decoded power tuples
kept here as its oracle; `free_symbols` and the parameter mask split of
`linear_solve` must agree with the decoded symbols.  `Expr`
arithmetic must satisfy the ring laws and `diff` the Leibniz rule, on
polynomials and on expressions over one radical kernel.  An `Expr` carries a
radicand exactly when it has a radical term, which `has_radical` relies on,
and a product with a single-term factor must build the same dict, in the
same order, as the general accumulation loop.  A sum or a product by a
radical-free single term, whose kernel pull `_build` may skip, must build
what the full pull builds, and every radical result must keep its radical
part free of a factor of the kernel.  Every coefficient is an `int`
when integral and otherwise a `Fraction` with denominator > 1, never a
`float`, while `as_fraction` and `eval_at` return `Fraction`s.  Total
derivatives, free and on the manifold, and residuals must equal the chain of
`Expr` operators that defines them, in value and in dict order.  A `Sym`'s
hash and order are those of its tuple, which must not depend on how a symbol
was built.
"""

import functools
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from jetlie import claims, jets, linsolve  # noqa: E402
from jetlie import expr as ex  # noqa: E402
from jetlie import symbols as sy  # noqa: E402
from jetlie.engine import residual  # noqa: E402
from jetlie.expr import ExprError, mono_div, mono_mul, monomial  # noqa: E402
from jetlie.parser import parse  # noqa: E402

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
    """The `Monomial` invariant: no guard bit, at most one nonzero slot of each
    K_EXP pair; decoded, sorted, no repeats, no zero exponents."""
    assert type(m) is ex.Monomial
    assert not m & ex._GUARD
    for s, e in m.powers:
        if sy.allows_negative_power(s):
            off = ex._OFFSET[s]
            assert not ((m >> off) & ex._M and (m >> (off + ex._W)) & ex._M)
    keys = [s for s, _ in m.powers]
    assert keys == sorted(set(keys))
    for s, e in m.powers:
        assert e > 0 or (e < 0 and sy.allows_negative_power(s))
        assert abs(e) <= ex.MAX_EXPONENT


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
        total = total + ex.constant(c) * ex.Expr({(monomial(powers), 0): 1}, None)
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
    for e in (a * b, a.diff(s), (a * b).diff(s)):
        _assert_normal(e)
    assert (a * b).diff(s) == a.diff(s) * b + a * b.diff(s)
    assert (a + b).diff(s) == a.diff(s) + b.diff(s)


@EXPR_SETTINGS
@given(polys, st.sampled_from([-3, -1, 1, 3]), st.sampled_from(ATOMS + [sy.BETA]))
def test_diff_atom_of_a_radical_power(p, k, s):
    # d(p R^(k/2)) = p' R^(k/2) + p (k/2) R' R^(k/2 - 1)
    half_k = ex.constant(Fraction(k, 2))
    expected = p.diff(s) * ROOT ** k + p * half_k * KERNEL.diff(s) * ROOT ** (k - 2)
    assert (p * ROOT ** k).diff(s) == expected


def test_diff_atom_lowers_the_exponent():
    x, u = ex.symbol(sy.X), ex.symbol(sy.U)
    assert (x ** 2 * u).diff(sy.X) == ex.constant(2) * x * u
    assert x.diff(sy.X) == ex.ONE
    assert (x * u).diff(sy.U) == x


@EXPR_SETTINGS
@given(exprs, exprs, st.sampled_from(ATOMS + [sy.BETA]), coefficients.filter(bool))
def test_radicand_present_iff_radical_term(a, b, s, c):
    results = [
        a + b,
        a * b,
        a - b,
        -a,
        a.diff(s),
        a.scale(c),
        a.primitive(),
        a.substitute({sy.X: b}),
    ]
    for e in results:
        assert e.has_radical() == (e.radicand is not None)
        assert e.has_radical() == any(k for _m, k in e.terms)


def _reference_mul(a, b):
    """a * b by the general accumulation loop, keeping its insertion order."""
    acc = {}
    for (m1, k1), c1 in a.terms.items():
        for (m2, k2), c2 in b.terms.items():
            key = (mono_mul(m1, m2), k1 + k2)
            total = acc.get(key, 0) + c1 * c2
            if total:
                acc[key] = total
            else:
                acc.pop(key, None)
    return ex.Expr._build(acc, ex.common_kernel(a, b))


# one term c * m * R^(k/2); k stays nonnegative so every product is representable
single_terms = st.tuples(
    coefficients.filter(bool),
    st.lists(st.tuples(st.sampled_from(ATOMS + [sy.BETA]), st.integers(1, 2)), max_size=3),
    st.sampled_from([0, 1, 3]),
).map(lambda t: ex.constant(t[0]) * ex.Expr({(monomial(t[1]), 0): 1}, None) * ROOT ** t[2])


@EXPR_SETTINGS
@given(single_terms, exprs)
def test_single_term_product_matches_the_accumulation_loop(a, b):
    assert len(a.terms) == 1
    for left, right in ((a, b), (b, a)):
        product = left * right
        expected = _reference_mul(left, right)
        assert product == expected
        assert list(product.terms) == list(expected.terms)
        assert product.radicand == expected.radicand


# -- packed monomials: order, range, decoding -------------------------------------


def mono_cmp(m1, m2):
    """Graded lexicographic comparison over the global symbol order, on the
    decoded power tuples: the comparison sorts used before `grlex_key`."""
    p1, p2 = m1.powers, m2.powers
    d1, d2 = sum(e for _, e in p1), sum(e for _, e in p2)
    if d1 != d2:
        return -1 if d1 < d2 else 1
    i, j = 0, 0
    while i < len(p1) and j < len(p2):
        s1, e1 = p1[i]
        s2, e2 = p2[j]
        if s1 == s2:
            if e1 != e2:
                return 1 if e1 > e2 else -1
            i += 1
            j += 1
        elif s1 < s2:
            return 1 if e1 > 0 else -1
        else:
            return -1 if e2 > 0 else 1
    if i < len(p1):
        return 1 if p1[i][1] > 0 else -1
    if j < len(p2):
        return -1 if p2[j][1] > 0 else 1
    return 0


@SETTINGS
@given(st.lists(monomials, max_size=8), st.lists(monomials, max_size=3))
def test_grlex_key_sorts_as_mono_cmp(ms, extra):
    expected = sorted(ms, key=functools.cmp_to_key(mono_cmp))
    assert sorted(ms, key=ex.grlex_key(ms)) == expected
    # a key over more symbols orders the same monomials the same way
    assert sorted(ms, key=ex.grlex_key(ms + extra)) == expected
    if ms:
        assert max(ms, key=ex.grlex_key(ms)) == expected[-1]


def _exponents(m):
    return dict(m.powers)


def _big_power(s):
    """Exponents at the edge of the slot range, and small ones."""
    top = ex.MAX_EXPONENT
    near = st.one_of(
        st.integers(1, 3), st.integers(top - 3, top), st.integers(top // 2 - 1, top // 2 + 1)
    )
    if sy.allows_negative_power(s):
        near = st.tuples(near, st.sampled_from([1, -1])).map(lambda t: t[0] * t[1])
    return st.tuples(st.just(s), near)


big_monomials = st.lists(
    st.sampled_from(SYMBOLS).flatmap(_big_power), max_size=4, unique_by=lambda p: p[0]
).map(monomial)


def _expected(m1, m2, sign):
    """The exponents of m1 * m2^sign, or the ExprError they call for."""
    acc = _exponents(m1)
    for s, e in m2.powers:
        acc[s] = acc.get(s, 0) + sign * e
    acc = {s: e for s, e in acc.items() if e}
    if any(e < 0 and not sy.allows_negative_power(s) for s, e in acc.items()):
        return "negative"
    if any(abs(e) > ex.MAX_EXPONENT for e in acc.values()):
        return "range"
    return acc


@SETTINGS
@given(big_monomials, big_monomials)
def test_products_and_quotients_never_wrap(m1, m2):
    for op, sign in ((mono_mul, 1), (mono_div, -1)):
        expected = _expected(m1, m2, sign)
        if isinstance(expected, str):
            message = "negative exponent" if expected == "negative" else "overflowed"
            with pytest.raises(ExprError, match=message):
                op(m1, m2)
        else:
            result = op(m1, m2)
            _assert_invariant(result)
            assert _exponents(result) == expected


def test_the_guard_catches_the_first_exponent_past_the_range():
    top = ex.MAX_EXPONENT
    x, e = sy.X, sy.exp_eps()
    with pytest.raises(ExprError, match="intermediate exponent of x overflowed"):
        mono_mul(monomial([(x, top)]), monomial([(x, 1)]))
    with pytest.raises(ExprError, match="intermediate exponent of exp\\(eps\\) overflowed"):
        mono_mul(monomial([(e, -top)]), monomial([(e, -1)]))
    with pytest.raises(ExprError, match="intermediate exponent of exp\\(eps\\) overflowed"):
        mono_div(monomial([(e, top)]), monomial([(e, -1)]))
    with pytest.raises(ExprError, match="exponent of x out of range"):
        monomial([(x, top + 1)])
    with pytest.raises(ExprError, match="overflowed"):
        ex.symbol(x) ** (top + 1)
    assert mono_mul(monomial([(e, top)]), monomial([(e, -1)])) == monomial([(e, top - 1)])
    with pytest.raises(ExprError, match="overflowed"):
        (ex.symbol(e) ** -top).diff(e)


def test_diff_atom_of_exp_powers():
    e = ex.symbol(sy.exp_eps())
    x = ex.symbol(sy.X)
    assert (x * e ** -2).diff(sy.exp_eps()) == ex.constant(-2) * x * e ** -3
    assert (x * e ** 3).diff(sy.exp_eps()) == ex.constant(3) * x * e ** 2
    assert (x * e).diff(sy.exp_eps()) == x


def _expr_of(pieces):
    total = ex.ZERO
    for c, m in pieces:
        total = total + ex.constant(c) * ex.Expr({(m, 0): 1}, None)
    return total


kind_exprs = st.lists(st.tuples(coefficients.filter(bool), monomials), max_size=4).map(_expr_of)


@EXPR_SETTINGS
@given(kind_exprs, kind_exprs)
def test_free_symbols_is_the_union_of_decoded_symbols(a, b):
    for e in (a, a * b, a * ROOT, a + b * ROOT ** 3):
        expected = {s for m, _k in e.terms for s, _e in m.powers}
        if e.has_radical():
            expected |= {s for m, _k in e.radicand.terms for s, _e in m.powers}
        assert e.free_symbols() == expected


class _Rows(Exception):
    """Carries the rows `linear_solve` hands to `nullspace`."""


def _captured_rows(columns):
    def capture(rows, ncols):
        raise _Rows(rows)

    original = linsolve.nullspace
    linsolve.nullspace = capture
    try:
        linsolve.linear_solve(columns)
    except _Rows as rows:
        return rows.args[0]
    finally:
        linsolve.nullspace = original
    raise AssertionError("linear_solve did not reach nullspace")


def _tuple_split(columns):
    """The rows of `linear_solve` split on decoded power tuples, as before packing."""
    kernel = ex.common_kernel(*columns)
    k_min = min((k for col in columns for _m, k in col.terms if k), default=0)
    poly_rows, radical_rows = {}, {}
    for j, col in enumerate(columns):
        for k, part in col.strata().items():
            rows = poly_rows
            if k:
                rows = radical_rows
                for _ in range((k - k_min) // 2):
                    part = part * kernel
            for (m, _k), c in part.terms.items():
                coord = tuple(p for p in m.powers if p[0].kind != sy.K_PARAM)
                par = tuple(p for p in m.powers if p[0].kind == sy.K_PARAM)
                rows.setdefault(coord, {}).setdefault(j, {})[(monomial(par), 0)] = c
    return [*poly_rows.values(), *radical_rows.values()]


def _items(rows):
    return [[(j, list(entry.items())) for j, entry in row.items()] for row in rows]


@EXPR_SETTINGS
@given(st.lists(st.tuples(kind_exprs, kind_exprs, st.sampled_from([0, 1, 3])), min_size=1, max_size=4))
def test_the_parameter_mask_split_matches_the_tuple_split(parts):
    columns = [p + q * ROOT ** k if k else p + q for p, q, k in parts]
    assert _items(_captured_rows(columns)) == _items(_tuple_split(columns))


# -- the kernel pull that sums and monomial products skip ----------------------------

U_EXPR = ex.symbol(sy.U)
# the second kernel has the factor u in every term, so a product by u may pull it
KERNELS = [KERNEL, U_EXPR + U_EXPR ** 2]


def _over(kernel):
    """p0 + p1 * sqrt(kernel)^k at a stratum k of either sign."""
    return st.tuples(polys, polys.filter(bool), st.sampled_from([-3, -1, 1, 3])).map(
        lambda p: p[0] + p[1] * ex.sqrt(kernel) ** p[2]
    )


# (kernel, a radical, a radical or a polynomial over the same kernel)
kernel_cases = st.sampled_from(KERNELS).flatmap(
    lambda kernel: st.tuples(st.just(kernel), _over(kernel), st.one_of(polys, _over(kernel)))
)
# c * m with no radical; exp(eps) may carry a negative power
plain_terms = st.tuples(
    coefficients.filter(bool),
    st.lists(st.sampled_from(ATOMS + [sy.BETA, sy.exp_eps()]).flatmap(_power), max_size=3),
).map(lambda t: ex.constant(t[0]) * ex.Expr({(monomial(t[1]), 0): 1}, None))


def _reference_add(a, b):
    """a + b by the full kernel pull."""
    acc = dict(a.terms)
    for key, c in b.terms.items():
        ex._accumulate(acc, key, c)
    return ex.Expr._build(acc, ex.common_kernel(a, b))


def _assert_same_build(e, reference):
    assert list(e.terms.items()) == list(reference.terms.items())
    assert e.radicand == reference.radicand


def _assert_no_kernel_factor(e):
    """A non-constant kernel does not divide the radical part of e."""
    if not e.has_radical():
        return
    kernel = e.radicand._poly()
    if len(kernel) == 1 and ex.MONE in kernel:
        return
    w = {m: c for (m, k), c in e.terms.items() if k}
    assert ex._pdiv_exact(w, kernel) is None


@EXPR_SETTINGS
@given(kernel_cases, plain_terms)
def test_skipped_pulls_build_what_the_full_pull_builds(case, cm):
    kernel, a, b = case
    # a + (b * kernel - a) cancels a and leaves a multiple of the kernel
    for left, right in ((a, b), (b, a), (a, b * kernel - a)):
        _assert_same_build(left + right, _reference_add(left, right))
    for left, right in ((a, cm), (cm, a)):
        _assert_same_build(left * right, _reference_mul(left, right))


@EXPR_SETTINGS
@given(kernel_cases, plain_terms, polys, st.sampled_from(ATOMS + [sy.BETA]))
def test_radical_parts_stay_free_of_the_kernel(case, cm, p, s):
    kernel, a, b = case
    results = [
        a + b,
        a - b,
        a * cm,
        cm * a,
        a * p,
        a * ex.sqrt(kernel) ** 3,
        a.diff(s),
        a.substitute({sy.X: p}),
    ]
    for e in results:
        _assert_no_kernel_factor(e)


def test_same_stratum_sum_pulls_the_kernel():
    x, root = ex.symbol(sy.X), ROOT ** -1
    assert (x + KERNEL) * root - x * root == ROOT


def test_product_by_a_factor_of_the_kernel_pulls_it():
    root = ex.sqrt(U_EXPR + U_EXPR ** 2)
    assert ((ex.ONE + U_EXPR) * root ** -1) * U_EXPR == root


def test_kernel_with_an_exp_symbol_keeps_the_full_pull():
    # exp(eps) is a unit, so exp(eps) + 1 divides what the division leaves
    e = ex.symbol(sy.exp_eps())
    root = ex.sqrt(ex.ONE + e)
    assert ((ex.ONE + e ** -1) * root) * e == root ** 3
    assert (e - e ** -1) * root + e ** -1 * root ** 3 == root ** 3


# -- total derivatives and residuals against the operator chain --------------------


def _chain_total(e, direction, produce):
    """D(e) as `total + e.diff(s) * rate` over the symbols s in order."""
    total = ex.ZERO
    for s in sorted(e.free_symbols()):
        rate = jets._rate(s, direction, produce)
        if rate is None or rate.is_zero():
            continue
        total = total + e.diff(s) * rate
    return total


def _minus_first_row(p):
    """-(first term of left) * right + total, so that the keys the first row of
    left * right adds first cancel to zero, ahead of the keys of total."""
    total, left, right = p
    if left:
        first = dict([next(iter(left.terms.items()))])
        total = -(ex.Expr(first, None) * right) + total
    return total, left, right


# a square P * P meets the key l1 * l2 twice, once from l1 and once from l2
product_cases = st.one_of(
    st.tuples(polys, polys, polys),
    st.tuples(polys, polys, polys).map(_minus_first_row),
    st.tuples(polys.filter(bool), polys.filter(lambda p: len(p.terms) > 1)).map(
        lambda p: _minus_first_row((p[0], p[1], p[1]))
    ),
)


@EXPR_SETTINGS
@given(product_cases)
def test_add_product_matches_the_operators(case):
    total, left, right = case
    terms = dict(total.terms)
    ex._add_product(terms, left.terms, right.terms)
    _assert_same_build(ex.Expr(terms, None), total + left * right)


class _ChainManifold(jets.Manifold):
    """A manifold whose total derivatives, the memoized mixed ones too, are the chain."""

    def total_dx(self, e):
        return _chain_total(e, 0, self._producer())

    def total_dt(self, e):
        return _chain_total(e, 1, self._producer())


def _chain_residual(man, q):
    """D_x D_t q - sum_i dF/du_{x^i} * D_x^i q, by `Expr` operators."""
    lin = ex.ZERO
    dx_powers = [q]
    for s in sorted(man.rhs.free_symbols()):
        if s.kind != sy.K_JET:
            continue
        i, _j = s.jet_orders
        while len(dx_powers) <= i:
            dx_powers.append(man.total_dx(dx_powers[-1]))
        lin = lin + man.rhs.diff(s) * dx_powers[i]
    return man.total_dx(man.total_dt(q)) - lin


JET_ATOMS = [
    sy.X, sy.T, sy.U, sy.jet(1, 0), sy.jet(2, 0), sy.jet(3, 0), sy.jet(0, 1), sy.jet(0, 2),
    sy.ALPHA, sy.BETA,
]
jet_powers = st.lists(st.tuples(st.sampled_from(JET_ATOMS), st.integers(1, 2)), max_size=3)
jet_polys = st.lists(st.tuples(coefficients, jet_powers), max_size=4).map(_poly)
# x u_x - u and t u_t - u: D_x, D_t of p * w cancel a term between the symbols x
# (or t) and u; the difference of two sums leaves the dict order cancellation set
SCALINGS = [
    ex.symbol(sy.X) * ex.symbol(sy.jet(1, 0)) - U_EXPR,
    ex.symbol(sy.T) * ex.symbol(sy.jet(0, 1)) - U_EXPR,
]
cancelling = st.one_of(
    st.tuples(jet_polys, jet_polys, st.sampled_from(SCALINGS)).map(lambda p: p[0] * p[2] + p[1]),
    st.tuples(jet_polys, jet_polys, jet_polys).map(lambda p: (p[0] + p[1]) - (p[0] + p[2])),
)
# the point symmetries plus a small perturbation: most of the residual cancels
POINT_SYMMETRIES = [
    ex.symbol(sy.jet(1, 0)),
    ex.symbol(sy.jet(0, 1)),
    SCALINGS[0] - ex.symbol(sy.T) * ex.symbol(sy.jet(0, 1)),
]
near_symmetries = st.tuples(st.lists(coefficients, min_size=3, max_size=3), jet_polys).map(
    lambda p: sum((ex.constant(c) * q for c, q in zip(p[0], POINT_SYMMETRIES)), p[1])
)
K3 = parse("u[3,0]*sqrt(2*b*u[1,0]^2 + a)^-3 - 6*b*u[1,0]*u[2,0]^2*sqrt(2*b*u[1,0]^2 + a)^-5")
RADICAL_CANDIDATES = [K3, claims.v4("third"), claims.v4("cubed"), ROOT * ex.symbol(sy.jet(2, 0))]
characteristics = st.one_of(
    jet_polys, cancelling, near_symmetries, radicals, st.sampled_from(RADICAL_CANDIDATES)
)
# the symbolic equation and a rational point
EQUATIONS = [jets.expand_equation(), jets.expand_equation(Fraction(1), Fraction(1, 2))]


def _manifolds():
    return [(jets.Manifold(eq), _ChainManifold(eq)) for eq in EQUATIONS]


@EXPR_SETTINGS
@given(characteristics)
def test_total_derivatives_match_the_operator_chain(e):
    free = jets._free_producer(jets.DEFAULT_MAX_ORDER)
    _assert_same_build(jets.free_total_dx(e), _chain_total(e, 0, free))
    for man, chain in _manifolds():
        _assert_same_build(man.total_dx(e), chain.total_dx(e))
        _assert_same_build(man.total_dt(e), chain.total_dt(e))
        _assert_same_build(man.total_dx(man.total_dt(e)), chain.total_dx(chain.total_dt(e)))
        for key, entry in man._mixed.items():
            _assert_same_build(entry, chain.reduce_mixed(*key))


@EXPR_SETTINGS
@given(characteristics)
def test_residual_matches_the_operator_chain(q):
    for man, chain in _manifolds():
        value = residual(man, q).value
        _assert_same_build(value, _chain_residual(chain, q))
        assert value.has_radical() == (value.radicand is not None)


@pytest.mark.parametrize("q", RADICAL_CANDIDATES, ids=["K3", "v4-third", "v4-cubed", "root-uxx"])
def test_radical_candidates_match_the_operator_chain(q):
    for man, chain in _manifolds():
        _assert_same_build(man.total_dx(q), chain.total_dx(q))
        _assert_same_build(man.total_dt(q), chain.total_dt(q))
        _assert_same_build(residual(man, q).value, _chain_residual(chain, q))


def test_the_chain_residual_cancels_on_a_symmetry():
    point = {sy.ALPHA: ex.ONE, sy.BETA: ex.constant(Fraction(1, 2))}
    for (man, chain), bindings in zip(_manifolds(), ({}, point)):
        for q in POINT_SYMMETRIES + [K3]:
            q = q.substitute(bindings)
            assert residual(man, q).is_zero
            assert _chain_residual(chain, q).is_zero()


# -- the coefficient domain ---------------------------------------------------------


def _assert_domain(e):
    """Every coefficient is an int, or a Fraction with denominator > 1."""
    for c in e.terms.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), repr(c)
    if e.radicand is not None:
        _assert_domain(e.radicand)


# c * exp(eps)^j: single terms whose negative powers exist
invertibles = st.tuples(coefficients.filter(bool), st.integers(-2, 2)).map(
    lambda t: ex.constant(t[0]) * ex.symbol(sy.exp_eps()) ** t[1]
)


@EXPR_SETTINGS
@given(exprs, exprs, st.sampled_from(ATOMS + [sy.BETA]), coefficients.filter(bool), invertibles)
def test_coefficients_stay_in_the_domain(a, b, s, c, inv):
    for e in (a, b, inv):
        _assert_domain(e)
    results = [
        a + b,
        a - b,
        -a,
        a * b,
        a ** 2,
        inv ** -1,
        inv ** -2,
        (inv * ROOT) ** -1,
        a.scale(c),
        a.primitive(),
        a.diff(s),
        a.substitute({sy.X: b}),
    ]
    for e in results:
        _assert_domain(e)
    assert inv * inv ** -1 == ex.ONE
    assert (inv * ROOT) ** -1 * ROOT == inv ** -1


@EXPR_SETTINGS
@given(polys, polys.filter(bool), coefficients.filter(bool))
def test_sqrt_and_exact_division_stay_in_the_domain(p, d, c):
    for e in (ex.sqrt(p), ex.sqrt(p * p), ex.sqrt(ex.constant(c) * ex.constant(c))):
        _assert_domain(e)
    assert ex.sqrt(ex.constant(c) * ex.constant(c)) == ex.constant(abs(c))
    quotient = ex.expr_div_exact(p * d, d)
    _assert_domain(quotient)
    assert quotient == p
    by_constant = ex.expr_div_exact(p, ex.constant(c))
    _assert_domain(by_constant)
    assert by_constant == p.scale(1 / c)


# alpha = 1, beta = 4, u_x = 1 puts the kernel at 9, a rational square
POINT = {sy.X: 2, sy.U: -1, sy.jet(1, 0): 1, sy.ALPHA: 1, sy.BETA: 4}


@EXPR_SETTINGS
@given(exprs, coefficients)
def test_as_fraction_and_eval_at_return_fractions(a, c):
    assert ex.constant(c).as_fraction() == c
    for e in (ex.constant(c), ex.ZERO, ex.ONE):
        assert type(e.as_fraction()) is Fraction
    for e in (a, ex.ONE, ex.ZERO, ex.constant(c)):
        value = e.eval_at(POINT)
        assert type(value) is Fraction


def test_integer_inverse_is_exact():
    half = ex.constant(2) ** -1
    assert half == ex.constant(Fraction(1, 2))
    _assert_domain(half)
    assert type(half.as_fraction()) is Fraction


def test_exact_quotient_by_an_integer_constant():
    u = monomial([(sy.U, 1)])
    quotient = ex._pdiv_exact({u: 2}, {ex.MONE: 4})
    assert quotient == {u: Fraction(1, 2)}
    assert type(quotient[u]) is Fraction


# -- Sym hash and order ---------------------------------------------------


@pytest.mark.parametrize(
    "make",
    [
        lambda: (sy.Sym(sy.K_JET, (1, 0)), sy.jet(1)),
        lambda: (sy.const("c1"), sy.Sym(sy.K_CONST, ("c1",))),
        lambda: (sy.exp_eps(), sy.Sym(sy.K_EXP, ("eps",))),
    ],
    ids=["jet", "const", "exp"],
)
def test_separately_built_symbols_agree(make):
    s1, s2 = make()
    assert s1 is not s2
    assert s1 == s2
    assert hash(s1) == hash(s2)
    assert not s1 < s2 and not s2 < s1
    for s in (s1, s2):
        assert hash(s) == hash((s.kind, s.data))
        assert s == (s.kind, s.data)


def test_symbol_order_follows_sort_key():
    ordered = sorted(SYMBOLS, key=lambda s: (s.kind, s.data))
    assert sorted(SYMBOLS) == ordered
    for a, b in zip(ordered, ordered[1:]):
        assert a < b and not b < a
