"""Point and contact vector fields, characteristics, and structure tables."""

from __future__ import annotations

from fractions import Fraction
from typing import List, NamedTuple, Optional, Tuple

from . import symbols as sy
from .expr import Expr, _q, symbol
from .linsolve import rational_solve
from .printer import pretty

_UX = sy.jet(1, 0)
_UT = sy.jet(0, 1)
_POINT_SYMS = {sy.X, sy.T, sy.U}
_CONTACT_SYMS = _POINT_SYMS | {_UX, _UT}


class FieldError(ValueError):
    pass


class ClosureError(FieldError):
    """A bracket fell outside the rational span of the basis."""

    def __init__(self, message: str, residual: "PointVectorField"):
        super().__init__(message)
        self.residual = residual


class PointVectorField(NamedTuple):
    """xi d/dx + tau d/dt + eta d/du; contact fields may carry u_x, u_t."""

    xi: Expr
    tau: Expr
    eta: Expr

    def components(self) -> Tuple[Expr, Expr, Expr]:
        return (self.xi, self.tau, self.eta)

    def is_point(self) -> bool:
        syms = set()
        for comp in self.components():
            syms |= {s for s in comp.free_symbols() if sy.is_coordinate(s)}
        return syms <= _POINT_SYMS

    def apply(self, f: Expr) -> Expr:
        """Act as a first-order derivation in (x, t, u)."""
        return (
            self.xi * f.diff(sy.X)
            + self.tau * f.diff(sy.T)
            + self.eta * f.diff(sy.U)
        )

    def __str__(self):
        return (
            f"({pretty(self.xi)}) d/dx + ({pretty(self.tau)}) d/dt "
            f"+ ({pretty(self.eta)}) d/du"
        )


class Characteristic(NamedTuple):
    """Evolutionary form Q of a symmetry candidate, with its jet order."""

    q: Expr

    @property
    def order(self) -> int:
        return self.q.max_jet_order()


class ContactData(NamedTuple):
    """First-jet components recovered from a characteristic."""

    xi: Expr
    tau: Expr
    eta: Expr
    eta_x: Expr
    eta_t: Expr
    kind: str  # "point" | "contact"

    def field(self) -> PointVectorField:
        return PointVectorField(self.xi, self.tau, self.eta)


def characteristic_of(v: PointVectorField) -> Characteristic:
    """Q = xi u_x + tau u_t - eta."""
    q = v.xi * symbol(_UX) + v.tau * symbol(_UT) - v.eta
    return Characteristic(q=q)


def point_field_of(q: Characteristic) -> ContactData:
    """Recover (xi, tau, eta, eta^x, eta^t) from an order <= 1 characteristic."""
    if q.order > 1:
        raise FieldError("not a contact characteristic (order exceeds 1)")
    expr = q.q
    bad = [
        s
        for s in expr.free_symbols()
        if sy.is_coordinate(s) and s not in _CONTACT_SYMS
    ]
    if bad:
        raise FieldError("not a contact characteristic (order exceeds 1)")
    xi = expr.diff(_UX)
    tau = expr.diff(_UT)
    eta = symbol(_UX) * xi + symbol(_UT) * tau - expr
    eta_x = -expr.diff(sy.X) - symbol(_UX) * expr.diff(sy.U)
    eta_t = -expr.diff(sy.T) - symbol(_UT) * expr.diff(sy.U)
    comp_syms = set()
    for comp in (xi, tau, eta):
        comp_syms |= {s for s in comp.free_symbols() if sy.is_coordinate(s)}
    kind = "point" if comp_syms <= _POINT_SYMS else "contact"
    return ContactData(xi=xi, tau=tau, eta=eta, eta_x=eta_x, eta_t=eta_t, kind=kind)


def commutator(v: PointVectorField, w: PointVectorField) -> PointVectorField:
    """Lie bracket of point fields, componentwise [v,w]^k = v(w^k) - w(v^k)."""
    if not v.is_point() or not w.is_point():
        raise FieldError("commutator is only supported for point fields")
    return PointVectorField(
        xi=v.apply(w.xi) - w.apply(v.xi),
        tau=v.apply(w.tau) - w.apply(v.tau),
        eta=v.apply(w.eta) - w.apply(v.eta),
    )


# ---------------------------------------------------------------------------
# structure tables
# ---------------------------------------------------------------------------


class StructureTable(NamedTuple):
    """Antisymmetric structure constants c[i][j][k] with [v_i, v_j] = c^k_ij v_k."""

    basis: Tuple[PointVectorField, ...]
    constants: Tuple[Tuple[Tuple[Fraction, ...], ...], ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def bracket_of_coeffs(self, a, b) -> Tuple[Fraction, ...]:
        """Bracket of two coefficient vectors in the table's basis."""
        n = self.dim
        out = [Fraction(0)] * n
        for i in range(n):
            if not a[i]:
                continue
            for j in range(n):
                if not b[j]:
                    continue
                for k in range(n):
                    out[k] += a[i] * b[j] * self.constants[i][j][k]
        return tuple(out)


def _field_coordinates(fields: List[PointVectorField]):
    """Exact coordinates of fields over the monomials of their components."""
    keys = []
    seen = set()
    for f in fields:
        for ci, comp in enumerate(f.components()):
            for (m, k), _ in comp.terms.items():
                if k != 0:
                    raise FieldError("radical components are not supported here")
                key = (ci, m)
                if key not in seen:
                    seen.add(key)
                    keys.append(key)
    keys.sort(key=lambda key: (key[0], str(key[1])))

    def vector(f: PointVectorField) -> List[Fraction]:
        vec = []
        for ci, m in keys:
            comp = f.components()[ci]
            vec.append(comp.terms.get((m, 0), Fraction(0)))
        return vec

    return keys, vector


def decompose_in_span(
    target: PointVectorField, basis: List[PointVectorField]
) -> Tuple[Optional[List[Fraction]], PointVectorField]:
    """Write target = sum d_k basis_k exactly; returns (coeffs or None, residual)."""
    keys, vector = _field_coordinates(list(basis) + [target])
    a = list(map(list, zip(*[vector(b) for b in basis])))  # rows: keys, cols: basis
    b = vector(target)
    sol, residual_vec = rational_solve(a, b)
    comps = [dict(), dict(), dict()]
    for (ci, m), r in zip(keys, residual_vec):
        if r:
            comps[ci][(m, 0)] = _q(r)
    residual = PointVectorField(
        xi=Expr(comps[0], None), tau=Expr(comps[1], None), eta=Expr(comps[2], None)
    )
    return sol, residual


def structure_table(basis: List[PointVectorField]) -> StructureTable:
    n = len(basis)
    constants = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            bracket = commutator(basis[i], basis[j])
            coeffs, residual = decompose_in_span(bracket, basis)
            if coeffs is None:
                raise ClosureError(
                    f"[v{i + 1}, v{j + 1}] is not in the span of the basis; "
                    f"residual field: {residual}",
                    residual,
                )
            for k in range(n):
                constants[i][j][k] = coeffs[k]
                constants[j][i][k] = -coeffs[k]
    return StructureTable(
        basis=tuple(basis),
        constants=tuple(tuple(tuple(row) for row in plane) for plane in constants),
    )
