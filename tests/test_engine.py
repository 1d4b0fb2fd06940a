import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetlie import claims
from jetlie import engine
from jetlie import expr as ex
from jetlie import symbols as sy
from jetlie.engine import (
    EngineError,
    ansatz_solve,
    jet_monomial_basis,
    new_dimension_count,
    point_affine_basis,
    residual,
    spot_check,
)
from jetlie.jets import Manifold, expand_equation
from jetlie.parser import parse

x = ex.symbol(sy.X)
t = ex.symbol(sy.T)
u = ex.symbol(sy.U)
ux = ex.symbol(sy.jet(1, 0))
ut = ex.symbol(sy.jet(0, 1))
uxx = ex.symbol(sy.jet(2, 0))
alpha = ex.symbol(sy.ALPHA)
beta = ex.symbol(sy.BETA)


@pytest.fixture(scope="module")
def man():
    return Manifold()


def test_translations_are_symmetries(man):
    assert residual(man, ux).is_zero
    assert residual(man, ut).is_zero


def test_residual_of_u(man):
    # oracle: D_x D_t u = F while F'[u] = F + 4 beta u u_x^2 + 2 beta u^2 u_xx
    rep = residual(man, u)
    assert rep.value == -2 * beta * u * (2 * ux ** 2 + u * uxx)
    assert not rep.is_zero
    assert sy.jet(1, 0) in rep.free_coordinates


def test_residual_scaling_weight_is_linear_in_c(man):
    c = sy.const("c9")
    q = x * ux - t * ut - ex.symbol(c) * u
    rep = residual(man, q)
    # residual = 2 beta (c - 1) u (2 u_x^2 + u u_xx): vanishes exactly at c = 1
    expected = 2 * beta * (ex.symbol(c) - 1) * u * (2 * ux ** 2 + u * uxx)
    assert rep.value == expected
    at_one = rep.value.substitute({c: ex.ONE})
    assert at_one.is_zero()
    at_claimed = rep.value.substitute({c: ex.constant(3)})
    assert not at_claimed.is_zero()


def test_residual_order_cap():
    man = Manifold(max_order=4)
    with pytest.raises(EngineError):
        residual(man, ex.symbol(sy.jet(3, 0)))


def _snapshot(e):
    return list(e.terms.items()), e.radicand


def test_residual_leaves_cached_derivatives_and_its_input_alone():
    # the memoized mixed derivatives are handed out as rates, and residuals are
    # summed in raw dicts; neither a cached entry nor q may change under them
    k3 = parse("u[3,0]*sqrt(2*b*u[1,0]^2 + a)^-3 - 6*b*u[1,0]*u[2,0]^2*sqrt(2*b*u[1,0]^2 + a)^-5")
    candidates = [
        ux, ut + ux, x * ux - t * ut - u, u * uxx + ut ** 2, parse("u[0,2]*u[2,0]"), claims.v5(), k3,
    ]
    for equation in (expand_equation(), expand_equation(Fraction(1), Fraction(1, 2))):
        man = Manifold(equation)
        inputs = [_snapshot(q) for q in candidates]
        cached = {}
        for q in candidates:
            residual(man, q)
            for key, entry in man._mixed.items():
                cached.setdefault(key, (entry, _snapshot(entry)))
            for key, (entry, snapshot) in cached.items():
                assert man._mixed[key] is entry
                assert _snapshot(entry) == snapshot
        assert len(cached) >= 5
        assert [_snapshot(q) for q in candidates] == inputs


def test_ansatz_single_translation(man):
    result = ansatz_solve(man, [ux])
    assert result.dimension == 1
    assert result.characteristics == [ux]


def test_ansatz_u_and_one_empty(man):
    result = ansatz_solve(man, [u, ex.ONE])
    assert result.dimension == 0


def test_point_affine_rediscovers_three_dims(man):
    result = ansatz_solve(man, point_affine_basis())
    assert result.dimension == 3
    sols = result.characteristics
    assert ux in sols
    assert ut in sols
    scaling = [q for q in sols if q not in (ux, ut)]
    assert len(scaling) == 1
    q = scaling[0]
    # canonical form x u_x - t u_t - c* u with the derived weight c* = 1
    assert q == x * ux - t * ut - u
    derived_weight = -q.coefficient(
        ex.monomial(((sy.U, 1),)), lambda s: s == sy.U
    ).as_fraction()
    assert derived_weight == 1
    assert derived_weight != claims.CLAIMED_SCALING_WEIGHT


def test_translation_closure_property(man):
    # any ansatz containing u_x and u_t keeps them in the solution span
    result = ansatz_solve(man, [ux, ut, u * ux, x * u])
    assert ux in result.characteristics
    assert ut in result.characteristics


def test_ansatz_rejects_unknown_constants(man):
    with pytest.raises(EngineError):
        ansatz_solve(man, [parse("c1*u")])


def test_bounded_order1_contact_scan(man):
    result = ansatz_solve(man, jet_monomial_basis(1, 3))
    assert result.dimension == 3
    # no proper contact symmetry
    assert new_dimension_count(result.characteristics, 1, result.assumptions) == 0


def test_bounded_order2_scan(man):
    basis = jet_monomial_basis(2, 3)
    result = ansatz_solve(man, basis)
    assert result.dimension == 3
    assert new_dimension_count(result.characteristics, 2, result.assumptions) == 0
    assert len(basis) == 168


def test_new_dimensions_are_counted_over_the_parameter_field(man):
    # beta*K3 and K3 span one dimension over Q(alpha, beta), though over Q,
    # with beta as a coordinate, they would be independent
    k3 = parse(
        "u[3,0]*sqrt(2*b*u[1,0]^2 + a)^-3 - 6*b*u[1,0]*u[2,0]^2*sqrt(2*b*u[1,0]^2 + a)^-5"
    )
    assert residual(man, k3).is_zero
    notes = ["alpha != 0"]
    assert new_dimension_count([beta * k3, k3], 3, notes) == 1
    # the rows where a parameter divides every entry note it, once
    assert notes == ["alpha != 0", "beta != 0"]


def test_the_notes_of_the_dependency_solve_are_printed(man):
    # both residuals vanish, so only the solve over the characteristics sees
    # that they are independent where alpha + beta != 0
    s = alpha + beta
    result = ansatz_solve(man, [s * ux, s * ut + ux])
    assert (result.dimension, result.dependent_directions) == (2, 0)
    assert result.assumptions == ["alpha + beta != 0"]


_AFFINE = point_affine_basis()
nonzero_rationals = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 7))
# members of the affine basis, then alpha-, beta- and alpha*beta-multiples of them
members = st.lists(st.sampled_from(_AFFINE), min_size=1, max_size=5, unique=True)
parameter_multiples = members.flatmap(
    lambda members: st.lists(
        st.tuples(st.sampled_from(members), st.sampled_from([alpha, beta, alpha * beta])),
        min_size=1,
        max_size=3,
    ).map(lambda multiples: members + [p * b for b, p in multiples])
)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(parameter_multiples, nonzero_rationals, nonzero_rationals)
def test_parameter_multiples_count_the_same_at_sym_and_at_a_point(basis, a, b):
    """The counts at sym are over Q(alpha, beta), so they hold at every point off
    the notes printed there; those notes are alpha, beta != 0 only, and every
    point drawn is off them."""
    at_sym = ansatz_solve(Manifold(), basis)
    assert set(at_sym.assumptions) <= {"alpha != 0", "beta != 0"}
    values = {sy.ALPHA: ex.constant(a), sy.BETA: ex.constant(b)}
    at_point = ansatz_solve(
        Manifold(expand_equation(a, b)), [q.substitute(values) for q in basis]
    )
    assert (at_sym.dimension, at_sym.dependent_directions) == (
        at_point.dimension,
        at_point.dependent_directions,
    )


def test_printed_generators_are_the_verified_ones(man, monkeypatch):
    # the solution space of [u_x + u_t, u_x] is spanned by u_x, u_t in grlex
    # echelon form and by u_t + u_x, u_x in basis echelon form: whichever is
    # returned must be what the post-solve residuals checked
    checked = []
    original = engine.residual

    def recording(man, q):
        checked.append(q)
        return original(man, q)

    monkeypatch.setattr(engine, "residual", recording)
    basis = [ux + ut, ux]
    result = ansatz_solve(man, basis)
    assert result.characteristics == [ut + ux, ux]
    assert all(q in checked[len(basis):] for q in result.characteristics)


@pytest.mark.parametrize(
    "basis, dimension, dependent, generators",
    [
        ([ux, ut, ux + ut], 2, 1, [ux, ut]),
        ([u, 2 * u], 0, 1, []),
    ],
)
def test_dependent_ansatz_directions(man, basis, dimension, dependent, generators):
    # a direction along which the basis itself is dependent gives the zero
    # characteristic: it is counted, not reported as a symmetry
    result = ansatz_solve(man, basis)
    assert result.dimension == dimension
    assert result.dependent_directions == dependent
    assert result.characteristics == generators


def test_spot_check_agreement(man):
    rng = random.Random(0)
    zero_rep = residual(man, ux)
    chk = spot_check(zero_rep.value, claims_zero=True, points=50, rng=rng)
    assert chk.agrees
    nonzero_rep = residual(man, u)
    chk2 = spot_check(nonzero_rep.value, claims_zero=False, points=50, rng=rng)
    assert chk2.agrees
    chk3 = spot_check(nonzero_rep.value, claims_zero=True, points=50, rng=rng)
    assert not chk3.agrees and chk3.witness is not None


def test_jet_monomial_basis_counts():
    basis = jet_monomial_basis(2, 3)
    # C(5+3,3) = 56 jet monomials, times {1, x, t}
    assert len(basis) == 168
    assert len({ex.grammar(b) if False else str(b) for b in basis}) == 168
