"""Exact linear algebra for determining systems.

`linear_solve` takes the residual columns R_1..R_n of an ansatz and solves
sum_j c_j * R_j = 0 for the constants c_j.  It is the one place where
expressions become matrix rows: one row per (coordinate monomial, radical
stratum), with the parameter monomials as entries.

The homogeneous solver `nullspace` works over the fraction field of
polynomials in the equation parameters without ever forming fractions
(Bareiss, Math. Comp. 22, 1968): the core is eliminated
by the fraction-free Gauss-Jordan rule (cross-multiply, divide by the
previous pivot; divisions are exact by Sylvester's identity), so entries
stay polynomial.  Pivots that are not rational constants are reported as
nonvanishing assumptions instead of case-splitting.

A small dense `Fraction` toolkit (rref / solve / nullspace) backs
structure-constant decompositions and canonical presentation of solution
spaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import symbols as sy
from .expr import (
    Expr,
    ExprError,
    MONE,
    ONE,
    ZERO,
    Monomial,
    _mono_sort_key,
    common_kernel,
    expr_div_exact,
    mono_div,
    monomial,
)
from .printer import pretty

Row = Dict[int, Expr]


class LinearSolveError(ValueError):
    pass


@dataclass
class NullspaceResult:
    basis: List[List[Expr]]  # each vector indexed by column position
    assumptions: List[str]
    rank: int


def _combined_content(entries: Sequence[Expr]):
    """(rational, monomial) content over every term of every entry."""
    num, den = 0, 1
    shared: Optional[Dict] = None
    for e in entries:
        for (m, _k), c in e.terms.items():
            num = math.gcd(num, c.numerator)
            den = math.lcm(den, c.denominator)
            cur = {s: x for s, x in m.powers if x > 0}
            if shared is None:
                shared = cur
            else:
                shared = {s: min(x, cur[s]) for s, x in shared.items() if s in cur}
    if num == 0:
        return Fraction(1), MONE
    return Fraction(num, den), monomial(tuple((shared or {}).items()))


def _lead_sign(e: Expr) -> int:
    lead = max(e.terms, key=lambda key: (_mono_sort_key(key[0]), key[1]))
    return 1 if e.terms[lead] > 0 else -1


def _scale_entries(entries: Sequence[Expr]) -> List[Expr]:
    """Divide a row/vector by its combined content; make the lead positive."""
    nonzero = [e for e in entries if not e.is_zero()]
    if not nonzero:
        return list(entries)
    rat, mono = _combined_content(nonzero)
    sign = _lead_sign(nonzero[0])
    out = []
    for e in entries:
        if e.is_zero():
            out.append(e)
            continue
        out.append(
            Expr(
                {(mono_div(m, mono), k): c * sign / rat for (m, k), c in e.terms.items()},
                e.radicand,
            )
        )
    return out


def _assumption(e: Expr) -> Optional[str]:
    prim = e.primitive()
    try:
        prim.as_fraction()
        return None
    except ExprError:
        return f"{pretty(prim)} != 0"


def nullspace(rows: Sequence[Row], ncols: int) -> NullspaceResult:
    """Basis of  {v : A v = 0}  over the parameter fraction field."""
    assumptions: List[str] = []
    forced_zero: set = set()

    work: List[Row] = []
    seen = set()
    for row in rows:
        row = {j: e for j, e in row.items() if not e.is_zero()}
        if not row:
            continue
        cols_sorted = sorted(row)
        entries = [row[j] for j in cols_sorted]
        _, content_mono = _combined_content(entries)
        for s in content_mono.symbols():
            note = f"{s.pretty()} != 0"
            if note not in assumptions:
                assumptions.append(note)
        scaled = _scale_entries(entries)
        row = dict(zip(cols_sorted, scaled))
        key = frozenset(row.items())
        if key not in seen:
            seen.add(key)
            work.append(row)

    # propagate single-entry rows: coeff * c_j = 0 forces c_j = 0
    changed = True
    while changed:
        changed = False
        next_work = []
        for row in work:
            row = {j: e for j, e in row.items() if j not in forced_zero}
            if not row:
                continue
            if len(row) == 1:
                ((j, coeff),) = row.items()
                note = _assumption(coeff)
                if note and note not in assumptions:
                    assumptions.append(note)
                forced_zero.add(j)
                changed = True
            else:
                next_work.append(row)
        work = next_work

    # dense fraction-free Gauss-Jordan on the remaining core
    cols = sorted({j for row in work for j in row})
    mat: List[List[Expr]] = [[row.get(j, ZERO) for j in cols] for row in work]
    pivots: List[Tuple[int, int]] = []
    used_rows: set = set()
    prev_pivot: Optional[Expr] = None
    while True:
        best = None
        for r in range(len(mat)):
            if r in used_rows:
                continue
            for c in range(len(cols)):
                if any(pc == c for _, pc in pivots):
                    continue
                e = mat[r][c]
                if e.is_zero():
                    continue
                size = (_assumption(e) is not None, len(e.terms), r, c)
                if best is None or size < best[0]:
                    best = (size, r, c)
        if best is None:
            break
        _, pr, pc = best
        pivot = mat[pr][pc]
        note = _assumption(pivot)
        if note and note not in assumptions:
            assumptions.append(note)
        for r in range(len(mat)):
            if r == pr:
                continue
            factor = mat[r][pc]
            for c in range(len(cols)):
                if c == pc:
                    continue
                val = pivot * mat[r][c] - factor * mat[pr][c]
                if prev_pivot is not None and not val.is_zero():
                    q = expr_div_exact(val, prev_pivot)
                    if q is None:
                        raise LinearSolveError(
                            "fraction-free elimination produced an inexact "
                            "division"
                        )
                    val = q
                mat[r][c] = val
            mat[r][pc] = ZERO
        used_rows.add(pr)
        pivots.append((pr, pc))
        prev_pivot = pivot

    # Gauss-Jordan leaves every pivot entry equal to the last pivot value
    d = prev_pivot
    pivot_of_col = {pc: pr for pr, pc in pivots}
    if pivots:
        for pr, pc in pivots:
            scale = expr_div_exact(d, mat[pr][pc])
            if scale is None:
                raise LinearSolveError("pivot normalization failed")
            if scale != Expr({(MONE, 0): Fraction(1)}, None):
                mat[pr] = [scale * v for v in mat[pr]]

    rank = len(pivots) + len(forced_zero)
    basis: List[List[Expr]] = []
    for j in range(ncols):
        if j in forced_zero:
            continue
        cj = cols.index(j) if j in cols else None
        if cj is not None and cj in pivot_of_col:
            continue
        vec = [ZERO] * ncols
        if cj is None:
            vec[j] = ONE
        else:
            vec[j] = d if d is not None else ONE
            for pc, pr in pivot_of_col.items():
                entry = mat[pr][cj]
                if not entry.is_zero():
                    vec[cols[pc]] = -entry
        basis.append(_scale_entries(vec))
    return NullspaceResult(basis=basis, assumptions=assumptions, rank=rank)


# ---------------------------------------------------------------------------
# spec-level entry point: the nullspace of a list of residual columns
# ---------------------------------------------------------------------------


def linear_solve(columns: Sequence[Expr]) -> NullspaceResult:
    """Nullspace of  sum_j c_j * columns[j] = 0  over the parameter fraction field.

    Every term of a column is (parameter monomial) * (coordinate monomial) *
    R^(k/2).  Each (coordinate monomial, k) is one row of the matrix and the
    parameter monomials are its entries.  Columns are in normal form, so their
    radical parts may sit at different strata k; they are first multiplied by
    powers of the common kernel R down to the lowest stratum present, so that
    equal functions of the coordinates share a row.  Polynomial rows come
    first, then radical rows, each in order of first appearance: `nullspace`
    breaks pivot ties by row index.
    """
    kernel = common_kernel(*columns)
    k_min = min((k for col in columns for _m, k in col.terms if k), default=0)
    poly_rows: Dict[Tuple, Dict[int, Dict]] = {}
    radical_rows: Dict[Tuple, Dict[int, Dict]] = {}
    for j, col in enumerate(columns):
        for k, part in col.strata().items():
            rows = poly_rows
            if k:
                rows = radical_rows
                for _ in range((k - k_min) // 2):
                    part = part * kernel
            for (m, _k), c in part.terms.items():
                coord = tuple(p for p in m.powers if p[0].kind != sy.K_PARAM)
                par = Monomial(tuple(p for p in m.powers if p[0].kind == sy.K_PARAM))
                rows.setdefault(coord, {}).setdefault(j, {})[(par, 0)] = c
    matrix = [
        {j: Expr(entry, None) for j, entry in row.items()}
        for row in [*poly_rows.values(), *radical_rows.values()]
    ]
    return nullspace(matrix, len(columns))


# ---------------------------------------------------------------------------
# dense rational helpers
# ---------------------------------------------------------------------------


def rational_rref(
    mat: List[List[Fraction]], pivot_cols: Optional[int] = None
) -> Tuple[List[List[Fraction]], List[int]]:
    """Reduced row echelon form over Q; returns (rref, pivot column indices).

    With `pivot_cols` set, pivots are only chosen among the first that many
    columns (the rest ride along, e.g. as row-combination trackers).
    """
    mat = [list(map(Fraction, row)) for row in mat]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    limit = ncols if pivot_cols is None else pivot_cols
    pivots: List[int] = []
    r = 0
    for c in range(limit):
        if r >= nrows:
            break
        pr = next((i for i in range(r, nrows) if mat[i][c] != 0), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        pv = mat[r][c]
        mat[r] = [v / pv for v in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    return mat, pivots


def rational_solve(
    a: List[List[Fraction]], b: List[Fraction]
) -> Tuple[Optional[List[Fraction]], List[Fraction]]:
    """Solve A x = b exactly.  Returns (solution or None, residual b - A x_best).

    When the system is inconsistent, x_best solves the consistent sub-system
    with free variables set to zero, so the residual pinpoints the failure.
    """
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    aug = [list(map(Fraction, a[i])) + [Fraction(b[i])] for i in range(nrows)]
    rref, pivots = rational_rref(aug)
    x = [Fraction(0)] * ncols
    consistent = True
    row_of_pivot = 0
    for i, c in enumerate(pivots):
        if c == ncols:
            consistent = False
        else:
            x[c] = rref[i][ncols]
    residual = [
        Fraction(b[i]) - sum(a[i][j] * x[j] for j in range(ncols))
        for i in range(nrows)
    ]
    if not consistent or any(residual):
        return None, residual
    return x, residual


def rational_nullspace(a: List[List[Fraction]]) -> List[List[Fraction]]:
    ncols = len(a[0]) if a else 0
    rref, pivots = rational_rref(a)
    free = [c for c in range(ncols) if c not in pivots]
    out = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for i, c in enumerate(pivots):
            vec[c] = -rref[i][f]
        out.append(vec)
    return out
