"""Differential test of `ansatz_solve` at rational points.

At a point (alpha, beta) with a non-integral coordinate, `ansatz_solve` builds
the columns of radical-free basis elements on the generic equation and lets
`linear_solve` evaluate them there.  The reference below builds every column
on the point's own manifold and solves without a point, as `ansatz_solve`
does everywhere else.  Both must hand `nullspace` the same ansatz rows, up to
their order, and give the same characteristics, no assumptions and the same
count of dependent directions.  The second `nullspace` call of each, on the
characteristics of the first one's basis, is compared through its result.

The bases mix members of `jet_monomial_basis(2, 3)` with sums b + k*b*w,
w = u_x^2 or u*u_xx: a member alone gives one parameter monomial per entry,
while such a sum gives entries like alpha - 2*beta that vanish on the lines
alpha = 2*beta and alpha = -beta, which the points cover.
"""

from collections import Counter
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from jetlie import expr as ex
from jetlie import symbols as sy
from jetlie.engine import _combine, _reduce_solutions, ansatz_solve, jet_monomial_basis, residual
from jetlie.jets import Manifold, expand_equation
from jetlie.linsolve import linear_solve
from nullspace_capture import with_rows

BASIS = jet_monomial_basis(2, 3)
_UX = ex.symbol(sy.jet(1, 0))
_W = (_UX ** 2, ex.symbol(sy.U) * ex.symbol(sy.jet(2, 0)))
PAIRS = [(b, b * w) for b in BASIS for w in _W if b * w in BASIS]


def row_multiset(rows):
    return Counter(frozenset((j, frozenset(e.items())) for j, e in row.items()) for row in rows)


def reference_solve(man, basis):
    solution = linear_solve([residual(man, b).value for b in basis])
    vectors, dependent = _reduce_solutions(basis, solution.basis, solution.assumptions)
    return [_combine(basis, v) for v in vectors], solution.assumptions, dependent


nonzero = st.integers(-9, 9).filter(bool)
rationals = st.builds(Fraction, nonzero, st.integers(1, 7))
points = st.one_of(
    st.tuples(rationals, rationals),
    st.tuples(nonzero, nonzero).map(lambda p: tuple(map(Fraction, p))),
    rationals.map(lambda b: (2 * b, b)),
    rationals.map(lambda b: (-b, b)),
)
sums = st.tuples(
    st.sampled_from(PAIRS),
    st.sampled_from([Fraction(k) for k in (-2, -1, 1, 2)] + [Fraction(1, 2), Fraction(-1, 2)]),
).map(lambda pair_k: pair_k[0][0] + ex.constant(pair_k[1]) * pair_k[0][1])
bases = st.tuples(
    st.lists(st.sampled_from(BASIS), max_size=8, unique=True),
    st.lists(sums, max_size=3, unique=True),
).map(lambda parts: parts[0] + [b for b in parts[1] if b not in parts[0]]).filter(bool)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(points, bases)
def test_ansatz_solve_at_a_point_matches_the_point_manifold(point, basis):
    result, rows = with_rows(ansatz_solve, Manifold(expand_equation(*point)), basis)
    reference, reference_rows = with_rows(reference_solve, Manifold(expand_equation(*point)), basis)
    characteristics, assumptions, dependent = reference
    assert row_multiset(rows[0]) == row_multiset(reference_rows[0])
    assert result.characteristics == characteristics
    assert result.assumptions == assumptions == []
    assert result.dependent_directions == dependent


def test_a_sum_of_the_strategy_has_entries_that_vanish_on_a_line():
    """1 + u_x^2 loses a coordinate monomial of its residual at alpha = 2*beta."""
    q = ex.ONE + _UX ** 2
    generic = residual(Manifold(), q).value
    at_point = residual(Manifold(expand_equation(Fraction(2), Fraction(1))), q).value
    coords = {m & ~ex.KIND_MASKS[sy.K_PARAM] for m, _k in generic.terms}
    assert len({m for m, _k in at_point.terms}) < len(coords)
