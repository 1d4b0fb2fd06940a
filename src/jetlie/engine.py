"""Linearized symmetry condition on the solution manifold.

A candidate characteristic Q is a symmetry iff

    D_x D_t Q  -  sum_sigma (dF/du_sigma) D_sigma Q  =  0

identically on the reduced jet space, in whose coordinates Q is written; a
mixed jet in Q is rejected.  The engine computes that residual exactly,
solves finite ansatz families through the exact nullspace machinery, and
counts what a bounded scan finds beyond the already-classified symmetries.
Every characteristic the solver reports is re-verified by an independent
residual computation before it is returned.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import claims
from . import symbols as sy
from .expr import (
    Expr, ExprError, ZERO, as_expr, constant, monomial, sqrt, sum_of_products, symbol,
)
from .jets import Manifold, expand_equation
from .linsolve import linear_solve, rational_rref
from .parser import parse
from .printer import pretty


class EngineError(ValueError):
    pass


# ---------------------------------------------------------------------------
# residual
# ---------------------------------------------------------------------------


class ResidualReport(NamedTuple):
    value: Expr
    is_zero: bool
    free_coordinates: List[sy.Sym]


def frechet_derivative(man: Manifold, q: Expr) -> Expr:
    """Linearization of the equation's right side in the direction q."""
    pairs = []  # (dF/du_{x^i}, D_x^i q) in symbol order
    dx_powers = [q]  # D_x^n q at index n, extended as needed
    for s in sorted(man.rhs.free_symbols()):
        if s.kind != sy.K_JET:
            continue
        i, j = s.jet_orders
        assert j == 0
        while len(dx_powers) <= i:
            dx_powers.append(man.total_dx(dx_powers[-1]))
        pairs.append((man.rhs.diff(s), dx_powers[i]))
    return sum_of_products(pairs)


def residual(man: Manifold, q: Expr) -> ResidualReport:
    """D_x D_t q - F'[q].  Its dict order orders the rows and so the assumptions: the
    total derivatives and F'[q] keep the dict order of their `Expr` operator chains
    (`sum_of_products`), and the difference is one `-`.  A mixed jet in q is no
    coordinate of the manifold, so it is rejected."""
    order = 0
    for s in sorted(q.free_symbols()):  # sorted: the lowest mixed jet is named
        if s.kind == sy.K_JET:
            i, j = s.jet_orders
            if i and j:
                raise EngineError(
                    f"{s.pretty()} is a mixed derivative, not a coordinate of the solution "
                    "manifold; write the characteristic in x, t, u, u[i,0] and u[0,j]"
                )
            order = max(order, i + j)
    if order > man.max_order - 2:
        raise EngineError(
            f"characteristic order {order} exceeds max_order - 2 = {man.max_order - 2}"
        )
    value = man.total_dx(man.total_dt(q)) - frechet_derivative(man, q)
    free = sorted(s for s in value.free_symbols() if s.kind == sy.K_JET)
    return ResidualReport(value=value, is_zero=value.is_zero(), free_coordinates=free)


# ---------------------------------------------------------------------------
# numeric cross-checks (stratum-wise, exact rational points)
# ---------------------------------------------------------------------------


class SpotCheck(NamedTuple):
    points: int
    agrees: bool
    witness: Optional[Dict[str, str]] = None


def _random_point(syms, rng: random.Random):
    return {s: Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for s in syms}


def spot_check(value: Expr, claims_zero: bool, points: int, rng: random.Random) -> SpotCheck:
    """Evaluate each radical stratum at random rational points.

    For a zero claim every stratum must vanish everywhere sampled; for a
    nonzero claim some stratum must be nonzero at some sampled point.
    """
    strata = value.strata() if value.terms else {0: ZERO}
    syms = sorted({s for p in strata.values() for s in p.free_symbols()})
    found_nonzero = None
    for _ in range(points):
        pt = _random_point(syms, rng)
        for k, p in strata.items():
            val = p.eval_at(pt)
            if val != 0:
                found_nonzero = (pt, k, val)
                break
        if found_nonzero and not claims_zero:
            break
    if claims_zero:
        agrees = found_nonzero is None
        witness = None
        if found_nonzero:
            pt, k, val = found_nonzero
            witness = {
                "stratum": str(k),
                "value": str(val),
                "point": ", ".join(f"{s.pretty()}={v}" for s, v in pt.items()),
            }
        return SpotCheck(points=points, agrees=agrees, witness=witness)
    agrees = found_nonzero is not None
    return SpotCheck(points=points, agrees=agrees, witness=None)


# ---------------------------------------------------------------------------
# finite-ansatz solving
# ---------------------------------------------------------------------------


class AnsatzResult(NamedTuple):
    characteristics: List[Expr]
    assumptions: List[str]
    dependent_directions: int = 0  # ansatz combinations that vanish identically

    @property
    def dimension(self) -> int:
        return len(self.characteristics)


def ansatz_solve(man: Manifold, basis: Sequence[Expr]) -> AnsatzResult:
    """The symmetries sum_j c_j * basis[j] with constant c_j, each re-verified on `man`.

    The point route: when `man`'s equation binds alpha and beta to rationals, one
    of them not an integer, and no basis element names a parameter, the column of
    each radical-free element is built on the generic equation, whose
    coefficients are integers, and `linear_solve` evaluates it at the point.
    The Fractions of the point then never pass through a total derivative.
    Radical columns and every other case are built on `man`; at an integral
    point `man`'s coefficients are ints too, and its columns, with fewer terms
    than the generic ones and nothing to evaluate, were measured faster.  The
    order of the rows that this changes cannot reach the report: at a full
    point every entry is a rational constant, so `nullspace` adds no
    assumption, and `_reduce_solutions` ends in the unique rref over basis
    coordinates, which depends only on the solution space.
    """
    basis = [as_expr(b) for b in basis]
    symbols = set()
    for b in basis:
        symbols |= b.free_symbols()
    if any(s.kind == sy.K_CONST for s in symbols):
        raise EngineError("ansatz basis must not contain unknown constants")
    point = man.equation.point
    generic = None
    if (
        len(point) == 2
        and any(v.denominator != 1 for v in point.values())
        and not any(s.kind == sy.K_PARAM for s in symbols)
    ):
        generic = Manifold(expand_equation(), man.max_order)
    columns = (
        residual(man if generic is None or b.has_radical() else generic, b).value
        for b in basis
    )
    solution = linear_solve(columns, point if generic is not None else None)
    vectors, dependent = _reduce_solutions(basis, solution.basis, solution.assumptions)
    characteristics: List[Expr] = []
    for entries in vectors:
        q = _combine(basis, entries)
        check = residual(man, q)
        if not check.is_zero:
            raise EngineError(
                "solver returned a non-symmetry; residual "
                f"{pretty(check.value)}"
            )
        characteristics.append(q)
    return AnsatzResult(
        characteristics=characteristics,
        assumptions=solution.assumptions,
        dependent_directions=dependent,
    )


def _combine(basis: Sequence[Expr], entries: Dict[int, Expr]) -> Expr:
    q = ZERO
    for k, entry in entries.items():
        q = q + entry * basis[k]
    return q


def _reduce_solutions(
    basis: Sequence[Expr], solutions: Sequence[Sequence[Expr]], assumptions: List[str]
) -> Tuple[List[Dict[int, Expr]], int]:
    """Reduce nullspace vectors to a basis of the characteristic *function* space.

    Returns (vectors, dependent), each vector mapping a basis index to its
    nonzero coefficient.  The dependencies among the characteristics
    q_1 .. q_m of the vectors are the solutions d of sum_j d_j * q_j = 0,
    which `linear_solve` finds over Q(alpha, beta); the notes it needs are
    added to `assumptions`.  Its basis vector for free column j is nonzero at
    j, zero at every other free column, and otherwise nonzero only at pivot
    columns, so q_j is a combination of the q at the pivot columns.  Dropping
    the q at every free column therefore keeps the span, and leaves q that
    are independent.  That needs the entry at j, the last pivot up to a
    content factor, to be nonzero: one that is not a monomial has its note,
    and a monomial in alpha, beta is nonzero because neither parameter may
    be 0.  Each dropped q is a direction along which the ansatz basis itself
    is dependent; they are counted, so the dimension reported is that of the
    space of symmetry functions.  When every coefficient left is rational,
    the vectors are then put in reduced row echelon form over the basis
    coordinates, which orders them by the basis.
    """
    vectors = [{k: e for k, e in enumerate(vec) if not e.is_zero()} for vec in solutions]
    dependencies = linear_solve(_combine(basis, entries) for entries in vectors)
    assumptions += [n for n in dependencies.assumptions if n not in assumptions]
    dropped = set(dependencies.free)
    reduced = [entries for j, entries in enumerate(vectors) if j not in dropped]
    try:
        rows = [
            [entries.get(k, ZERO).as_fraction() for k in range(len(basis))]
            for entries in reduced
        ]
    except ExprError:
        return reduced, len(dropped)
    rref, _pivots = rational_rref(rows)
    return [{k: constant(c) for k, c in enumerate(row) if c} for row in rref], len(dropped)


# ---------------------------------------------------------------------------
# bounded nonexistence scans
# ---------------------------------------------------------------------------


def _term_beyond_known_class(mono, k: int, radicand, order: int) -> bool:
    """Is a single characteristic term outside the already-classified class?

    At order 1 the known class is the point class (affine in u_x, u_t), so
    anything of jet degree >= 2 in the jets counts as proper contact.  At
    higher orders a term is new when it carries a jet of that order,
    including inside the radical kernel.
    """
    max_jet = 0
    jet_degree = 0
    for s, e in mono.powers:
        if s.kind == sy.K_JET:
            max_jet = max(max_jet, s.jet_order)
            if s.jet_order >= 1:
                jet_degree += e
    if k != 0 and radicand is not None:
        max_jet = max(max_jet, radicand.max_jet_order())
    if order == 1:
        return max_jet >= 2 or jet_degree >= 2
    return max_jet >= order


def new_dimension_count(characteristics: Sequence[Expr], order: int, assumptions: List[str]) -> int:
    """Dimension over Q(alpha, beta) of the solution span along terms beyond the
    known class: the rank of the characteristics cut down to those terms.  The
    notes the rank needs are added to `assumptions`."""
    high = [
        Expr(
            {
                (m, k): c
                for (m, k), c in q.terms.items()
                if _term_beyond_known_class(m, k, q.radicand, order)
            },
            q.radicand,
        )
        for q in characteristics
    ]
    dependencies = linear_solve(high)
    assumptions += [n for n in dependencies.assumptions if n not in assumptions]
    return len(high) - len(dependencies.basis)


def jet_monomial_basis(order: int, degree: int) -> List[Expr]:
    """Monomials of total degree <= degree in the reduced jets of order <= order,
    each multiplied by 1, x and t."""
    jets = [sy.U]
    for i in range(1, order + 1):
        jets.append(sy.jet(i, 0))
        jets.append(sy.jet(0, i))
    combos = []
    for total in range(degree + 1):
        for combo in itertools.combinations_with_replacement(jets, total):
            combos.append(combo)
    out = []
    seen = set()
    for combo in combos:
        base = monomial([(s, 1) for s in combo])
        for extra in (None, sy.X, sy.T):
            m = base if extra is None else monomial(base.powers + ((extra, 1),))
            if m not in seen:
                seen.add(m)
                out.append(Expr({(m, 0): 1}, None))
    return out


# the bounded scans: name -> (jet order, total degree) of their jet_monomial_basis
BOUNDED_SCANS = {"order-2": (2, 3), "order-4": (4, 2)}


# ---------------------------------------------------------------------------
# built-in ansatz families
# ---------------------------------------------------------------------------

POINT_AFFINE_BASIS_NAMES = (
    "u[1,0]",
    "u[0,1]",
    "x*u[1,0]",
    "x*u[0,1]",
    "t*u[1,0]",
    "t*u[0,1]",
    "u",
    "x*u",
    "t*u",
    "1",
)


def point_affine_basis() -> List[Expr]:
    return [parse(text) for text in POINT_AFFINE_BASIS_NAMES]


def order3_claimed_basis(interp: str = "third") -> List[Expr]:
    """Claimed-family scan: the affine point basis plus every monomial of the
    claimed third-order family (under one reading) and its radical member."""
    ux = symbol(sy.jet(1, 0))
    uxx = symbol(sy.jet(2, 0))
    extras = [
        claims.x3(interp),
        claims.t3(interp),
        uxx ** 6 * claims.x3(interp),
        ux * uxx ** 4,
        ux ** 3,
        claims.v4(interp),
    ]
    out: List[Expr] = []
    for b in point_affine_basis() + extras:
        if b not in out:
            out.append(b)
    return out


def order3_derived_kernel() -> Expr:
    """First-derivative kernel 2 beta u_x^2 + alpha."""
    return (
        constant(2) * symbol(sy.BETA) * symbol(sy.jet(1, 0)) ** 2
        + symbol(sy.ALPHA)
    )


def order3_derived_basis() -> List[Expr]:
    """Radical scan over the first-derivative kernel, where a genuine
    third-order symmetry lives."""
    ux = symbol(sy.jet(1, 0))
    uxx = symbol(sy.jet(2, 0))
    ux3 = symbol(sy.jet(3, 0))
    u = symbol(sy.U)
    rk = sqrt(order3_derived_kernel())
    return [
        symbol(sy.jet(1, 0)),
        symbol(sy.jet(0, 1)),
        u,
        ux3 * rk ** -1,
        ux3 * rk ** -3,
        ux3 * rk ** -5,
        ux * uxx ** 2 * rk ** -3,
        ux * uxx ** 2 * rk ** -5,
        uxx ** 2 * rk ** -3,
        ux ** 3 * rk ** -1,
        ux * rk ** -1,
        u * uxx * rk ** -3,
    ]


BUILTIN_BASES = ("point-affine", "order-2", "order-3", "order-3-derived", "order-4")


def builtin_basis(name: str, interp: str = "third") -> List[Expr]:
    if name == "point-affine":
        return point_affine_basis()
    if name in BOUNDED_SCANS:
        return jet_monomial_basis(*BOUNDED_SCANS[name])
    if name == "order-3":
        return order3_claimed_basis(interp)
    if name == "order-3-derived":
        return order3_derived_basis()
    raise EngineError(f"unknown basis family {name!r}")


# ---------------------------------------------------------------------------
# derived point algebra
# ---------------------------------------------------------------------------


class DerivedPointAlgebra(NamedTuple):
    result: AnsatzResult
    characteristics: List[Expr]  # ordered v1 (x-translation), v2, v3 (scaling)
    weight: Fraction  # derived scaling weight c* in x u_x - t u_t - c* u

    @property
    def dimension(self) -> int:
        return self.result.dimension


def derive_point_algebra(man: Manifold) -> DerivedPointAlgebra:
    """Solve the affine point ansatz and identify the canonical basis."""
    result = ansatz_solve(man, point_affine_basis())
    ux = symbol(sy.jet(1, 0))
    ut = symbol(sy.jet(0, 1))
    if result.dimension != 3 or ux not in result.characteristics or ut not in result.characteristics:
        raise EngineError(
            "derived point algebra is not the generic 3-dimensional family "
            f"(dimension {result.dimension}); table and adjoint commands "
            "need the generic parameter case"
        )
    scaling = next(
        q for q in result.characteristics if q not in (ux, ut)
    )
    weight = -scaling.coefficient(
        monomial(((sy.U, 1),)), lambda s: s == sy.U
    ).as_fraction()
    expected = (
        symbol(sy.X) * ux - symbol(sy.T) * ut - constant(weight) * symbol(sy.U)
    )
    if scaling != expected:
        raise EngineError("derived scaling generator has an unexpected shape")
    return DerivedPointAlgebra(
        result=result,
        characteristics=[ux, ut, scaling],
        weight=weight,
    )
