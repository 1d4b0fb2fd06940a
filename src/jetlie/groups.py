"""One-parameter flows, equation invariance, and symmetry reduction.

Flows of affine point fields are exact exponentials of the augmented
(x, t, u, 1) system; their maps are expressions in the group parameter and
its exponential, so group axioms are symbolic identities.  Equation-level
invariance pulls the equation form u_xt - F back through the prolonged
transformation and factors out the conformal multiplier exactly; symmetry
reduction substitutes the similarity form and re-derives the reduced ODE,
cross-checked by an independent chain-rule differentiation.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import symbols as sy
from .algebra import exact_matrix_exp
from .expr import Expr, ExprError, ONE, ZERO, _q, as_expr, monomial, symbol
from .fields import PointVectorField
from .jets import Manifold
from .printer import pretty


class FlowError(ValueError):
    pass


class NonSymmetryError(ValueError):
    def __init__(self, message: str, residual: Expr):
        super().__init__(message)
        self.residual = residual


def _affine_row(comp: Expr) -> Tuple[Fraction, Fraction, Fraction, Fraction]:
    cx = comp.diff(sy.X)
    ct = comp.diff(sy.T)
    cu = comp.diff(sy.U)
    rest = comp - cx * symbol(sy.X) - ct * symbol(sy.T) - cu * symbol(sy.U)
    try:
        return (cx.as_fraction(), ct.as_fraction(), cu.as_fraction(), rest.as_fraction())
    except ExprError:
        raise FlowError(
            f"flow needs components affine in (x, t, u); got {pretty(comp)}"
        ) from None


class GroupElement(NamedTuple):
    generator: PointVectorField
    eps_name: str
    maps: Tuple[Expr, Expr, Expr]  # images of x, t, u

    def subs_parameter(self, eps_value: Expr, exp_value: Expr) -> Tuple[Expr, Expr, Expr]:
        bindings = {sy.eps(self.eps_name): eps_value, sy.exp_eps(self.eps_name): exp_value}
        return tuple(m.substitute(bindings) for m in self.maps)

    def is_identity_at_zero(self) -> bool:
        at0 = self.subs_parameter(ZERO, ONE)
        return at0 == (symbol(sy.X), symbol(sy.T), symbol(sy.U))

    def compose(self, other: "GroupElement") -> Tuple[Expr, Expr, Expr]:
        """Maps of self after other (self o other)."""
        bindings = {
            sy.X: other.maps[0],
            sy.T: other.maps[1],
            sy.U: other.maps[2],
        }
        return tuple(m.substitute(bindings) for m in self.maps)

    def inverse_maps(self) -> Tuple[Expr, Expr, Expr]:
        eps = symbol(sy.eps(self.eps_name))
        e = symbol(sy.exp_eps(self.eps_name))
        return self.subs_parameter(-eps, e ** -1)


def flow(v: PointVectorField, eps_name: str = "eps") -> GroupElement:
    """Exact one-parameter group of an affine point field."""
    rows = [_affine_row(comp) for comp in (v.xi, v.tau, v.eta)]
    aug = [
        [rows[i][0], rows[i][1], rows[i][2], rows[i][3]] for i in range(3)
    ] + [[Fraction(0)] * 4]
    m = exact_matrix_exp(aug, eps_name)
    coords = (symbol(sy.X), symbol(sy.T), symbol(sy.U), ONE)
    maps = tuple(
        sum((m[i][j] * coords[j] for j in range(4)), ZERO) for i in range(3)
    )
    return GroupElement(generator=v, eps_name=eps_name, maps=maps)


def diagonal_exponents(g: GroupElement) -> Optional[Tuple[int, int, int]]:
    """(kx, kt, ku) when the flow is (e^(kx e) x, e^(kt e) t, e^(ku e) u)."""
    out = []
    for m, s in zip(g.maps, (sy.X, sy.T, sy.U)):
        coeff = m.diff(s)
        if m != coeff * symbol(s):
            return None
        if coeff == ONE:
            out.append(0)
            continue
        if len(coeff.terms) != 1:
            return None
        ((mono, k), c), = coeff.terms.items()
        if k != 0 or c != 1 or len(mono.powers) != 1:
            return None
        sym, e = mono.powers[0]
        if sym != sy.exp_eps(g.eps_name):
            return None
        out.append(e)
    return tuple(out)


# ---------------------------------------------------------------------------
# equation-level invariance
# ---------------------------------------------------------------------------


def _monomial_scale(m: Expr, var: sy.Sym, name: str) -> Tuple[Expr, Expr]:
    """Split an affine coordinate map into (scale, shift); scale invertible."""
    scale = m.diff(var)
    shift = m - scale * symbol(var)
    for s in (sy.X, sy.T, sy.U):
        if not scale.diff(s).is_zero():
            raise FlowError(f"{name} map mixes coordinates; invariance unsupported")
    if any(sy.is_coordinate(s) for s in shift.free_symbols()):
        raise FlowError(f"{name} map mixes coordinates; invariance unsupported")
    try:
        scale ** -1
    except ExprError:
        raise FlowError(f"{name} map has a non-invertible scale") from None
    return scale, shift


class InvarianceResult(NamedTuple):
    factor: Expr  # Delta o g = factor * Delta

    def exponent(self, eps_name: str = "eps") -> Optional[int]:
        if len(self.factor.terms) != 1:
            return None
        ((mono, k), c), = self.factor.terms.items()
        if k != 0 or c != 1:
            return None
        if not mono.powers:
            return 0
        if len(mono.powers) == 1 and mono.powers[0][0] == sy.exp_eps(eps_name):
            return mono.powers[0][1]
        return None


def equation_invariance(man: Manifold, g: GroupElement) -> InvarianceResult:
    """Conformal factor of Delta = u_xt - F under the prolonged flow.

    Supported transformations scale x and t separately (no mixing) and act
    affinely on u; that covers translations, scalings and the vertical
    catalogue.  Raises NonSymmetryError with the exact obstruction when the
    pullback is not proportional to Delta.
    """
    xmap, tmap, umap = g.maps
    p, _x0 = _monomial_scale(xmap, sy.X, "x")
    q, _t0 = _monomial_scale(tmap, sy.T, "t")
    lam = umap.diff(sy.U)
    for s in (sy.X, sy.T, sy.U):
        if not lam.diff(s).is_zero():
            raise FlowError("u map must be affine with a constant scale")
    mu = umap - lam * symbol(sy.U)
    if not mu.diff(sy.U).is_zero():
        raise FlowError("u map must be affine in u")

    delta = symbol(sy.jet(1, 1)) - man.rhs
    bindings: Dict[sy.Sym, Expr] = {sy.X: xmap, sy.T: tmap}
    p_inv = p ** -1
    q_inv = q ** -1
    for s in sorted(delta.free_symbols()):
        if s.kind != sy.K_JET:
            continue
        i, j = s.jet_orders
        mu_der = mu
        for _ in range(i):
            mu_der = mu_der.diff(sy.X)
        for _ in range(j):
            mu_der = mu_der.diff(sy.T)
        bindings[s] = (p_inv ** i) * (q_inv ** j) * (lam * symbol(s) + mu_der)
    transformed = delta.substitute(bindings)

    uxt_mono = monomial(((sy.jet(1, 1), 1),))
    factor = transformed.coefficient(
        uxt_mono, lambda s: s.kind == sy.K_JET and s == sy.jet(1, 1)
    )
    residual = transformed - factor * delta
    if not residual.is_zero() or factor.is_zero():
        raise NonSymmetryError(
            "the flow does not map the equation to a multiple of itself; "
            f"obstruction: {pretty(residual)}",
            residual,
        )
    return InvarianceResult(factor=factor)


def transform_solution(g: GroupElement, f: Expr) -> Expr:
    """Image of an explicit polynomial solution u = f(x, t) under the flow."""
    bad = [s for s in f.free_symbols() if s not in (sy.X, sy.T)]
    if bad:
        raise FlowError(
            "solution transformation needs a polynomial in x and t; found "
            + ", ".join(s.pretty() for s in bad)
        )
    lam = g.maps[2].diff(sy.U)
    mu = g.maps[2] - lam * symbol(sy.U)
    if not mu.diff(sy.U).is_zero() or any(
        not lam.diff(s).is_zero() for s in (sy.X, sy.T, sy.U)
    ):
        raise FlowError("u map must be affine in u")
    xi, ti, _ui = g.inverse_maps()
    inverse_bindings = {sy.X: xi, sy.T: ti}
    return lam * f.substitute(inverse_bindings) + mu.substitute(inverse_bindings)


# ---------------------------------------------------------------------------
# symmetry reduction to ODEs
# ---------------------------------------------------------------------------


class ReducedODE(NamedTuple):
    family: str
    parameter: Optional[Expr]
    invariant: Expr  # z as an expression in x, t (and the family parameter)
    similarity: str  # human-readable similarity form
    lhs: Expr  # image of u_xt
    rhs: Expr  # image of F
    ode: Expr  # lhs - rhs, normalized
    multiple: Expr  # back-substituted equation equals multiple * ode
    notes: List[str]


def _w(k: int) -> Expr:
    return symbol(sy.ode_w(k))


def _shift_w(e: Expr) -> Expr:
    total = ZERO
    for s in sorted(e.free_symbols()):
        if s.kind == sy.K_ODE and s.data[0] == "w":
            total = total + e.diff(s) * _w(s.data[1] + 1)
    return total


def _equation_jets(man: Manifold) -> set:
    """u_xt and the jets of the equation's right side."""
    return {sy.jet(1, 1)} | {s for s in man.rhs.free_symbols() if s.kind == sy.K_JET}


def _jet_images(man: Manifold, base: Expr, dx, dt) -> Dict[sy.Sym, Expr]:
    """Images of `_equation_jets` under u -> base, by recursion:
    u_(i+1,j) -> dx(image of u_(i,j)) and u_(0,j+1) -> dt(image of u_(0,j))."""
    images: Dict[Tuple[int, int], Expr] = {(0, 0): base}

    def image(i, j):
        if (i, j) not in images:
            images[(i, j)] = dx(image(i - 1, j)) if i > 0 else dt(image(0, j - 1))
        return images[(i, j)]

    return {s: image(*s.jet_orders) for s in _equation_jets(man)}


def _delta_image(man: Manifold, bindings: Dict[sy.Sym, Expr]) -> Tuple[Expr, Expr]:
    lhs = bindings[sy.jet(1, 1)]
    rhs = man.rhs.substitute(
        {s: v for s, v in bindings.items() if s != sy.jet(1, 1)}
    )
    return lhs, rhs


def reduce_representative(
    man: Manifold,
    coeffs: Sequence,
    weight: int = 1,
) -> ReducedODE:
    """Symmetry reduction for an optimal-system representative.

    `coeffs` are (c1, c2, c3) over the derived basis (v1, v2, scaling); the
    supported forms are v1 + a*v2, b*v1 + v2 and the pure scaling, with the
    scaling similarity exponent given by the derived weight.
    """
    c1, c2, c3 = (as_expr(c) for c in coeffs)
    if not c3.is_zero():
        if not (c1.is_zero() and c2.is_zero()):
            raise FlowError(
                "representative not in the supported list (mixed scaling)"
            )
        return _reduce_scaling(man, weight)
    if c1 == ONE:
        return _reduce_traveling(man, "v1 + a*v2", c2, cx=-c2, ct=ONE)
    if c2 == ONE:
        return _reduce_traveling(man, "b*v1 + v2", c1, cx=ONE, ct=-c1)
    raise FlowError(
        "representative not in the supported list (expected v1 + a*v2, "
        "b*v1 + v2 or the scaling)"
    )


def _reduce_traveling(
    man: Manifold, family: str, parameter: Expr, cx: Expr, ct: Expr
) -> ReducedODE:
    # direct substitution route: u_(i,j) -> cx^i ct^j w_(i+j)
    bindings = {}
    for s in _equation_jets(man):
        i, j = s.jet_orders
        bindings[s] = (cx ** i) * (ct ** j) * _w(i + j)
    lhs, rhs = _delta_image(man, bindings)
    ode = lhs - rhs

    # independent chain-rule route through the similarity form
    oracle = _jet_images(
        man, _w(0), lambda e: cx * _shift_w(e), lambda e: ct * _shift_w(e)
    )
    lhs2, rhs2 = _delta_image(man, oracle)
    if (lhs2 - rhs2) != ode:
        raise FlowError("back-substitution check failed for the reduction")

    # invariant: z with dz = cx dx + ct dt
    invariant = cx * symbol(sy.X) + ct * symbol(sy.T)
    notes = []
    if cx.is_zero():
        notes.append(
            "degenerate reduction: u_x = 0 forces the algebraic relation "
            "below; with alpha != 0 only w = 0 survives"
        )
    return ReducedODE(
        family=family,
        parameter=parameter,
        invariant=invariant,
        similarity="u = w(z)",
        lhs=lhs,
        rhs=rhs,
        ode=ode,
        multiple=ONE,
        notes=notes,
    )


def _reduce_scaling(man: Manifold, weight: int) -> ReducedODE:
    if weight < 0:
        raise FlowError("scaling reduction needs a nonnegative integer weight")
    # similarity form u = x^weight * w(z), z = x t
    base = symbol(sy.X) ** weight * _w(0)

    def dx(e: Expr) -> Expr:
        return e.diff(sy.X) + symbol(sy.T) * _shift_w(e)

    def dt(e: Expr) -> Expr:
        return e.diff(sy.T) + symbol(sy.X) * _shift_w(e)

    bindings = _jet_images(man, base, dx, dt)
    lhs, rhs = _delta_image(man, bindings)
    delta_img = lhs - rhs

    # rewrite x^p t^q monomials as x^(p-q) z^q; scaling invariance makes the
    # leftover x power uniform, which is itself a structural check
    m, _k = next(iter(delta_img.terms))
    sigma = m.exponent(sy.X) - m.exponent(sy.T)
    ode = _rewrite_in_z(delta_img, sigma)
    lhs_ode = _rewrite_in_z(lhs, sigma)
    rhs_ode = _rewrite_in_z(rhs, sigma)
    return ReducedODE(
        family="v3",
        parameter=None,
        invariant=symbol(sy.X) * symbol(sy.T),
        similarity=f"u = x^{weight} * w(z)" if weight != 1 else "u = x*w(z)",
        lhs=lhs_ode,
        rhs=rhs_ode,
        ode=ode,
        multiple=symbol(sy.X) ** sigma if sigma else ONE,
        notes=[],
    )


def _rewrite_in_z(e: Expr, sigma: int) -> Expr:
    out = {}
    for (m, k), c in e.terms.items():
        p = m.exponent(sy.X)
        q = m.exponent(sy.T)
        if p - q != sigma:
            raise FlowError("scaling reduction did not produce a similarity form")
        rest = [(s, e2) for s, e2 in m.powers if s not in (sy.X, sy.T)]
        key = (monomial(tuple(rest) + ((sy.Z, q),)), 0)
        out[key] = out.get(key, 0) + c
    return Expr({k: _q(v) for k, v in out.items() if v}, None)
