"""Adjoint representation, exact exponentials, optimal-system normalization.

Matrix exponentials are computed in closed form over Q, with `rational_rref`
as the only solver.  When every eigenvalue of A is an integer, their squares
sum to tr(A^2), so each integer lam with lam^2 <= tr(A^2) is tried: the
generalized eigenspace ker (A - lam)^n is the free-column kernel of an rref.
The spaces must fill Q^n, i.e. every eigenvalue is an integer; else the
exponential is refused.  With these eigenvectors as the columns of V, one rref of [V | I]
gives V^-1 and each spectral projector P_lam = V_lam (V^-1)_lam, and exp(eps*A)
= sum_lam e^(lam eps) sum_k eps^k (A - lam)^k P_lam / k!.  Entries live in the
expression kernel with `eps` an ordinary symbol and `exp(eps)` an invertible
one, so composition, inversion and the automorphism property are all exact
identities.

Adjoint maps follow the Lie series convention

    Ad(exp(eps v_i)) w = w - eps [v_i, w] + eps^2/2 [v_i, [v_i, w]] - ...

i.e. Ad(exp(eps v_i)) = exp(-eps ad_{v_i}).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import symbols as sy
from .expr import Expr, ONE, ZERO, symbol
from .fields import StructureTable
from .linsolve import rational_rref, rational_solve

Vec = Tuple[Fraction, ...]


class AlgebraError(ValueError):
    pass


class SubalgebraError(AlgebraError):
    def __init__(self, message: str, bracket: Vec, residual: Vec):
        super().__init__(message)
        self.bracket = bracket
        self.residual = residual


# ---------------------------------------------------------------------------
# exact matrix exponential
# ---------------------------------------------------------------------------


def _mat_mul(a, b):
    n = len(a)
    m = len(b[0])
    inner = len(b)
    return [
        [sum((a[i][k] * b[k][j] for k in range(inner)), Fraction(0)) for j in range(m)]
        for i in range(n)
    ]


def _kernel(mat: List[List[Fraction]]) -> List[List[Fraction]]:
    """A basis of ker(mat), one vector per free column of its rref."""
    rref, pivots = rational_rref(mat)
    basis = []
    for f in range(len(mat[0])):
        if f not in pivots:
            v = [Fraction(0)] * len(mat[0])
            v[f] = Fraction(1)
            for row, p in zip(rref, pivots):
                v[p] = -row[f]
            basis.append(v)
    return basis


def exact_matrix_exp(
    a: List[List[Fraction]], eps_name: str = "eps"
) -> List[List[Expr]]:
    """exp(eps * A) with entries polynomial in eps and exp(eps)^k, exactly."""
    n = len(a)
    # if every eigenvalue is an integer, their squares sum to tr(A^2), so none
    # lies beyond this bound, however large the entries of A (a translation
    # has tr(A^2) = 0); keep the generalized eigenspace ker (A - lam)^n of each
    spaces = {}
    trace = sum(a[i][k] * a[k][i] for i in range(n) for k in range(n))
    bound = math.isqrt(max(0, math.floor(trace)))
    for lam in range(-bound, bound + 1):
        shifted = [[a[i][j] - (lam if i == j else 0) for j in range(n)] for i in range(n)]
        if len(rational_rref(shifted)[1]) == n:  # lam is no eigenvalue
            continue
        power = shifted
        for _ in range(n - 1):
            power = _mat_mul(shifted, power)
        spaces[lam] = (shifted, _kernel(power))
    columns = [v for _shifted, space in spaces.values() for v in space]
    if len(columns) != n:
        raise AlgebraError(
            "matrix exponential needs integer eigenvalues; "
            "characteristic polynomial has a non-integer root"
        )
    # the generalized eigenvectors are the columns of V; rref [V | I] = [I | V^-1]
    augmented = [
        [v[i] for v in columns] + [Fraction(1 if i == k else 0) for k in range(n)]
        for i in range(n)
    ]
    inverse = [row[n:] for row in rational_rref(augmented)[0]]
    eps = symbol(sy.eps(eps_name))
    e_sym = symbol(sy.exp_eps(eps_name))
    out = [[ZERO for _ in range(n)] for _ in range(n)]
    start = 0
    for lam, (nilp, space) in spaces.items():
        mult = len(space)
        # the spectral projector P_lam = V_lam (V^-1)_lam
        npow = _mat_mul([[v[i] for v in space] for i in range(n)], inverse[start : start + mult])
        start += mult
        fact = 1
        for k in range(mult):
            scale = Fraction(1, fact)
            coeff = (e_sym ** lam) * eps ** k
            for i in range(n):
                for j in range(n):
                    if npow[i][j]:
                        out[i][j] = out[i][j] + coeff.scale(scale * npow[i][j])
            npow = _mat_mul(nilp, npow)
            fact *= k + 1
    return out


# ---------------------------------------------------------------------------
# adjoint representation
# ---------------------------------------------------------------------------


def ad_matrix(table: StructureTable, i: int) -> List[List[Fraction]]:
    """Matrix of w -> [v_i, w] on basis coefficients."""
    n = table.dim
    out = [[Fraction(0)] * n for _ in range(n)]
    for j in range(n):
        for k in range(n):
            out[k][j] = table.constants[i][j][k]
    return out


class AdjointMap(NamedTuple):
    generator: int  # 0-based index i of v_i
    eps_name: str
    matrix: List[List[Expr]]  # coefficients map, entries in eps / exp(eps)

    def is_identity_at_zero(self) -> bool:
        at0 = self.at_symbolic_zero()
        n = len(self.matrix)
        return all(
            at0[i][j] == (ONE if i == j else ZERO) for i in range(n) for j in range(n)
        )

    def at_symbolic_zero(self) -> List[List[Expr]]:
        subs = {
            sy.eps(self.eps_name): ZERO,
            sy.exp_eps(self.eps_name): ONE,
        }
        return [[e.substitute(subs) for e in row] for row in self.matrix]

    def apply_symbolic(self, coeffs: Sequence[Expr]) -> List[Expr]:
        n = len(self.matrix)
        return [
            sum((self.matrix[i][j] * coeffs[j] for j in range(n)), ZERO)
            for i in range(n)
        ]


def adjoint_exp(table: StructureTable, i: int, eps_name: str = "eps") -> AdjointMap:
    """Ad(exp(eps v_i)) on coefficients, i.e. exp(-eps ad_{v_i}), exactly."""
    ad = ad_matrix(table, i)
    neg = [[-x for x in row] for row in ad]
    return AdjointMap(generator=i, eps_name=eps_name, matrix=exact_matrix_exp(neg, eps_name))


def apply_adjoint_at(
    table: StructureTable, i: int, value: Fraction, coeffs: Vec
) -> Vec:
    """Ad(exp(value*v_i)) applied to rational coefficients via the Lie series.

    Exact whenever the series terminates (nilpotent ad), which covers every
    map the optimal-system normalization needs.
    """
    n = table.dim
    current = tuple(Fraction(c) for c in coeffs)
    total = list(current)
    term = list(current)
    basis_i = tuple(Fraction(1 if k == i else 0) for k in range(n))
    for k in range(1, 2 * n + 2):
        bracket = table.bracket_of_coeffs(basis_i, tuple(term))
        term = [(-Fraction(value)) * b / k for b in bracket]
        # series sign: w - eps [v_i, w] + ...
        if not any(term):
            return tuple(total)
        total = [a + b for a, b in zip(total, term)]
    raise AlgebraError("Lie series did not terminate; generator is not nilpotent")


def preserves_structure(table: StructureTable, matrix: List[List[Expr]]) -> bool:
    """Check that a coefficient map is a Lie algebra automorphism."""
    n = table.dim
    cols = [[matrix[i][j] for i in range(n)] for j in range(n)]

    def bracket_expr(a: List[Expr], b: List[Expr]) -> List[Expr]:
        out = [ZERO] * n
        for i in range(n):
            for j in range(n):
                prod = a[i] * b[j]
                if prod.is_zero():
                    continue
                for k in range(n):
                    c = table.constants[i][j][k]
                    if c:
                        out[k] = out[k] + prod.scale(c)
        return out

    for i in range(n):
        for j in range(n):
            lhs = bracket_expr(cols[i], cols[j])
            rhs = [ZERO] * n
            for k in range(n):
                c = table.constants[i][j][k]
                if c:
                    for m in range(n):
                        rhs[m] = rhs[m] + cols[k][m].scale(c)
            if any((lhs[m] - rhs[m]) for m in range(n)):
                return False
    return True


# ---------------------------------------------------------------------------
# optimal systems for the derived 3-dimensional algebra
# ---------------------------------------------------------------------------

_EXPECTED_PATTERN = "[v1,v3] = v1, [v2,v3] = -v2, [v1,v2] = 0"


def _check_spe_table(table: StructureTable):
    if table.dim != 3:
        raise AlgebraError("optimal systems are implemented for 3-dim algebras")
    expected = {
        (0, 2): (Fraction(1), Fraction(0), Fraction(0)),
        (1, 2): (Fraction(0), Fraction(-1), Fraction(0)),
        (0, 1): (Fraction(0), Fraction(0), Fraction(0)),
    }
    for (i, j), want in expected.items():
        if table.constants[i][j] != want:
            raise AlgebraError(
                f"normalization expects the derived table ({_EXPECTED_PATTERN})"
            )


class Normalize1D(NamedTuple):
    representative: Vec
    family: str  # "v1 + a*v2" | "b*v1 + v2" | "v3"
    parameter: Optional[Fraction]
    steps: List[Tuple]  # ("adjoint", generator index, eps) / ("scale", factor)
    invariants: Dict[str, str]


def normalize_1d(table: StructureTable, coeffs: Sequence[Fraction]) -> Normalize1D:
    """Drive a nonzero algebra element to its optimal-system representative.

    Returns the representative together with the exact witness maps; applying
    the reported adjoint maps and scalar to the input reproduces the
    representative identically.  Preference when c3 = 0 and c1 != 0 goes to
    the first family v1 + a*v2.
    """
    _check_spe_table(table)
    c = tuple(Fraction(v) for v in coeffs)
    if not any(c):
        raise AlgebraError("cannot normalize the zero element")
    steps: List[Tuple] = []
    invariants = {
        "stratum": "c3 != 0" if c[2] else "c3 = 0",
    }
    current = c
    if c[2]:
        eps1 = current[0] / current[2]
        if eps1:
            current = apply_adjoint_at(table, 0, eps1, current)
            steps.append(("adjoint", 0, eps1))
        eps2 = -current[1] / current[2]
        if eps2:
            current = apply_adjoint_at(table, 1, eps2, current)
            steps.append(("adjoint", 1, eps2))
        scale = Fraction(1) / current[2]
        if scale != 1:
            current = tuple(scale * v for v in current)
            steps.append(("scale", scale))
        assert current == (0, 0, 1)
        return Normalize1D(
            representative=current,
            family="v3",
            parameter=None,
            steps=steps,
            invariants=invariants,
        )
    invariants["sign(c1*c2)"] = str(_sign(c[0] * c[1]))
    if c[0]:
        scale = Fraction(1) / c[0]
        if scale != 1:
            current = tuple(scale * v for v in current)
            steps.append(("scale", scale))
        a = current[1]
        invariants["finer form"] = (
            f"a normalizes to {_sign(a)} under the scaling adjoint flow"
        )
        return Normalize1D(
            representative=current,
            family="v1 + a*v2",
            parameter=a,
            steps=steps,
            invariants=invariants,
        )
    scale = Fraction(1) / c[1]
    if scale != 1:
        current = tuple(scale * v for v in current)
        steps.append(("scale", scale))
    return Normalize1D(
        representative=current,
        family="b*v1 + v2",
        parameter=Fraction(0),
        steps=steps,
        invariants=invariants,
    )


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def replay_steps(table: StructureTable, coeffs: Vec, steps: List[Tuple]) -> Vec:
    current = tuple(Fraction(v) for v in coeffs)
    for step in steps:
        if step[0] == "adjoint":
            _, i, eps_val = step
            current = apply_adjoint_at(table, i, eps_val, current)
        else:
            _, factor = step
            current = tuple(factor * v for v in current)
    return current


class Normalize2D(NamedTuple):
    representative: Tuple[str, str]
    pair: Tuple[Vec, Vec]  # final elements after in-span reduction and maps
    steps: List[Tuple]


def normalize_2d(
    table: StructureTable, h1: Sequence[Fraction], h2: Sequence[Fraction]
) -> Normalize2D:
    """Classify a 2-dimensional subalgebra to its representative pair."""
    _check_spe_table(table)
    a = tuple(Fraction(v) for v in h1)
    b = tuple(Fraction(v) for v in h2)
    rref, pivots = rational_rref([list(a), list(b)])
    if len(pivots) != 2:
        raise AlgebraError("the pair does not span a 2-dimensional space")
    bracket = table.bracket_of_coeffs(a, b)
    sol, residual = rational_solve(
        [[a[k], b[k]] for k in range(3)], list(bracket)
    )
    if sol is None:
        raise SubalgebraError(
            f"not a subalgebra: the bracket {tuple(bracket)} of the pair is "
            "outside its span",
            tuple(bracket),
            tuple(residual),
        )
    # canonical in-span basis from the rref rows
    e1 = tuple(rref[0])
    e2 = tuple(rref[1])
    steps: List[Tuple] = []
    if e1[2] == 0 and e2[2] == 0:
        rep = ("v1", "v2")
        pair = (e1, e2)
    else:
        # order so that z has the v3 component
        z = e1 if e1[2] else e2
        w = e2 if e1[2] else e1
        z = tuple(v / z[2] for v in z)
        if w[2]:
            w = tuple(wv - w[2] * zv for wv, zv in zip(w, z))
        # w spans h in span{v1, v2}; closure forces w along v1 or v2
        if w[0] and w[1]:
            wb = table.bracket_of_coeffs(w, z)
            raise SubalgebraError(
                "not a subalgebra: intersection with the translation plane "
                "is not bracket-stable",
                wb,
                wb,
            )
        if w[0]:
            w = tuple(v / w[0] for v in w)
            eps2 = -z[1]
            if eps2:
                z = apply_adjoint_at(table, 1, eps2, z)
                steps.append(("adjoint", 1, eps2))
            eps1 = z[0]
            if eps1:
                z = apply_adjoint_at(table, 0, eps1, z)
                steps.append(("adjoint", 0, eps1))
            rep = ("v1", "v3")
            assert w == (1, 0, 0) and z == (0, 0, 1)
        else:
            w = tuple(v / w[1] for v in w)
            eps1 = z[0]
            if eps1:
                z = apply_adjoint_at(table, 0, eps1, z)
                steps.append(("adjoint", 0, eps1))
            eps2 = -z[1]
            if eps2:
                z = apply_adjoint_at(table, 1, eps2, z)
                steps.append(("adjoint", 1, eps2))
            rep = ("v2", "v3")
            assert w == (0, 1, 0) and z == (0, 0, 1)
        pair = (w, z)
    return Normalize2D(representative=rep, pair=pair, steps=steps)
