"""Reduced jet space of u_xt = F(u, u_x, ..., u_{x^n}).

Coordinates are x, t, u and the pure derivatives u_{x^i}, u_{t^j}; every
mixed derivative is eliminated through the equation and its differential
consequences u_{x^i t^j} = D_x^{i-1} D_t^{j-1} F, memoized per manifold.
`Manifold.total_dx`/`total_dt` act on the solution manifold (mixed
coordinates are reduced away), while `free_total_dx` acts on the full jet
space, where `expand_equation` expands (u^3)_xx.

D(e) = sum of (de/ds) * D(s) over the symbols s of e, in order, equals the chain
`total + e.diff(s) * rate` in value and dict order, which orders residual terms,
rows and assumptions: `sum_of_products` adds radical-free products into one dict in
the order of `*` and `+`, and keeps the chain for radicals.  Rates are memoized:
never write into them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Optional, Union

from . import symbols as sy
from .expr import ONE, Expr, as_expr, sum_of_products, symbol

DEFAULT_MAX_ORDER = 12


class JetOrderError(ValueError):
    def __init__(self, i: int, j: int, cap: int):
        super().__init__(
            f"coordinate u_[{i},{j}] exceeds the configured order cap {cap}"
        )
        self.coordinate = (i, j)
        self.cap = cap


class Equation:
    """u_xt = rhs, with rhs polynomial in u and pure x-derivatives.

    `point` maps each parameter that `expand_equation` was given as an int or
    a Fraction to that value; `engine.ansatz_solve` reads it to specialize the
    generic equation's columns there.  Only `expand_equation` sets it, so a
    point always agrees with its rhs; an equation built from its right side
    alone has no point."""

    __slots__ = ("rhs", "point")

    def __init__(self, rhs: Expr):
        self.rhs = rhs
        self.point: Dict[sy.Sym, Fraction] = {}
        for s in rhs.free_symbols():
            if s.kind == sy.K_JET:
                i, j = s.jet_orders
                if j != 0:
                    raise ValueError("equation right side must not contain t-derivatives")
            elif s.kind not in (sy.K_PARAM, sy.K_CONST):
                raise ValueError(f"unsupported symbol {s.pretty()} in equation")


def expand_equation(alpha: Union[Expr, Fraction, int] = None,
                    beta: Union[Expr, Fraction, int] = None) -> Equation:
    """The short pulse equation u_xt = alpha*u + (beta/3)*(u^3)_xx, expanded."""
    a = symbol(sy.ALPHA) if alpha is None else as_expr(alpha)
    b = symbol(sy.BETA) if beta is None else as_expr(beta)
    u3 = symbol(sy.U) ** 3
    rhs = a * symbol(sy.U) + b.scale(Fraction(1, 3)) * free_total_dx(free_total_dx(u3))
    eq = Equation(rhs=rhs)
    if alpha is not None and not isinstance(alpha, Expr):
        eq.point[sy.ALPHA] = alpha
    if beta is not None and not isinstance(beta, Expr):
        eq.point[sy.BETA] = beta
    return eq


def _rate(s: sy.Sym, direction: int, produce):
    """D(s) for a single symbol; direction 0 = x, 1 = t.

    `produce(i, j)` maps a requested jet coordinate to an expression (free or
    manifold-reduced).  Returns None for symbols with zero rate.
    """
    if s.kind == sy.K_VAR:
        moving = sy.X if direction == 0 else sy.T
        return ONE if s == moving else None
    if s.kind == sy.K_JET:
        i, j = s.jet_orders
        return produce(i + (1 - direction), j + direction)
    return None


def _total_derivative(e: Expr, direction: int, produce) -> Expr:
    rates = []
    for s in sorted(e.free_symbols()):
        rate = _rate(s, direction, produce)
        if rate is not None and not rate.is_zero():
            rates.append((s, rate))
    return sum_of_products([(e.diff(s), rate) for s, rate in rates])


def free_total_dx(e: Expr, max_order: int = DEFAULT_MAX_ORDER) -> Expr:
    return _total_derivative(e, 0, _free_producer(max_order))


def _free_producer(max_order: int):
    def produce(i: int, j: int) -> Expr:
        if i + j > max_order:
            raise JetOrderError(i, j, max_order)
        return symbol(sy.jet(i, j))

    return produce


class Manifold:
    """The equation's solution manifold with memoized mixed-derivative elimination."""

    def __init__(self, equation: Optional[Equation] = None,
                 max_order: int = DEFAULT_MAX_ORDER):
        self.equation = equation if equation is not None else expand_equation()
        self.max_order = max_order
        self._mixed: Dict[tuple, Expr] = {}

    @property
    def rhs(self) -> Expr:
        return self.equation.rhs

    def reduce_mixed(self, i: int, j: int) -> Expr:
        """u_{x^i t^j} (i, j >= 1) written in reduced coordinates."""
        if i < 1 or j < 1:
            raise ValueError("reduce_mixed needs a mixed coordinate (i, j >= 1)")
        if i + j > self.max_order:
            raise JetOrderError(i, j, self.max_order)
        key = (i, j)
        cached = self._mixed.get(key)
        if cached is not None:
            return cached
        if i == 1 and j == 1:
            value = self.rhs
        elif i > 1:
            value = self.total_dx(self.reduce_mixed(i - 1, j))
        else:
            value = self.total_dt(self.reduce_mixed(1, j - 1))
        self._mixed[key] = value
        return value

    def _producer(self):
        def produce(i: int, j: int) -> Expr:
            if i + j > self.max_order:
                raise JetOrderError(i, j, self.max_order)
            if i >= 1 and j >= 1:
                return self.reduce_mixed(i, j)
            return symbol(sy.jet(i, j))

        return produce

    def total_dx(self, e: Expr) -> Expr:
        return _total_derivative(e, 0, self._producer())

    def total_dt(self, e: Expr) -> Expr:
        return _total_derivative(e, 1, self._producer())
