"""Exact linear algebra for determining systems.

`linear_solve` takes the residual columns R_1..R_n of an ansatz and solves
sum_j c_j * R_j = 0 for the constants c_j.  It is the one place where
expressions become matrix rows: one row per (coordinate monomial, radical
stratum), with the parameter monomials as entries.  Rows are raw
`{column: {(parameter monomial, 0): coefficient}}` dicts.

Given a rational point (alpha, beta), `linear_solve` evaluates each parameter
monomial there while it splits, and drops the entries and rows that vanish.
`engine.ansatz_solve` takes this route when both parameters are rational and
one is not an integer: its radical-free columns are then built on the generic
equation, whose coefficients are integers.  At an integral point the point's
own coefficients are integers as well, and building there is faster.  At a
full point the row order cannot reach a report, unlike at `sym`, where it
orders the assumptions: every entry is a rational constant, so `nullspace`
adds no assumption, and the solution space it spans does not depend on the
order.

The homogeneous solver `nullspace` works over the fraction field of
polynomials in the equation parameters without ever forming fractions
(Bareiss, Math. Comp. 22, 1968).  Single-entry propagation, which forces
almost every column of a scan system to zero, runs on the raw rows.
`_normalize` divides a row by its content in one integer pass only where
duplicate rows could change the result: a row about to force a column that
an earlier row with the same columns may repeat, and the rows left for the
dense core, which alone become `Expr`s.  Each basis vector is normalized
the same way.  The core is eliminated by the fraction-free Gauss-Jordan
rule (cross-multiply, divide by the previous pivot; divisions are exact by
Sylvester's identity), so entries stay polynomial.  Pivots that are not
rational constants are reported as nonvanishing assumptions instead of
case-splitting.

Two dense `Fraction` helpers, `rational_rref` and `rational_solve`, back
structure-constant decompositions, the basis order of all-rational ansatz
solutions, the in-span reduction of subalgebra pairs, and the kernels and
inverses from which `algebra.exact_matrix_exp` builds matrix exponentials.
The dimensions that `engine` counts are `nullspace` ranks, over the fraction
field.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from . import symbols as sy
from .expr import (
    Coeff,
    Expr,
    ExprError,
    KIND_MASKS,
    MONE,
    ONE,
    ZERO,
    Monomial,
    TermKey,
    _accumulate,
    _q,
    common_kernel,
    expr_div_exact,
    grlex_key,
    mono_div,
    mono_gcd,
)
from .printer import pretty

Entry = Dict[TermKey, Coeff]  # {(parameter monomial, 0): nonzero int or Fraction}
Row = Dict[int, Entry]


class LinearSolveError(ValueError):
    pass


class NullspaceResult(NamedTuple):
    basis: List[List[Expr]]  # each vector indexed by column position
    assumptions: List[str]
    rank: int
    free: List[int]  # the free column of each basis vector; the others are 0 there


def _normalize(entries: Sequence[Entry]) -> Tuple[Monomial, List[Dict[TermKey, int]]]:
    """(content monomial, entries / content) for nonzero entries in column order.

    The content is gcd(numerators)/lcm(denominators) times the monomial shared
    by every term, signed to make the first entry's lead positive; so each
    scaled coefficient n/d is the integer sign*(n/num)*(den/d).
    """
    num, den = 0, 1
    shared: Optional[Monomial] = None
    for entry in entries:
        for (m, _k), c in entry.items():
            num = math.gcd(num, c.numerator)
            den = math.lcm(den, c.denominator)
            if shared is None:
                shared = m
            elif shared and m != shared:
                shared = mono_gcd(shared, m)
    first = entries[0]
    if len(first) == 1:
        lead = next(iter(first))
    else:
        grlex = grlex_key(m for m, _k in first)
        lead = max(first, key=lambda key: (grlex(key[0]), key[1]))
    if first[lead] < 0:
        num = -num
    return shared, [
        {
            (MONE if m is shared else mono_div(m, shared), k): c.numerator // num * (den // c.denominator)
            for (m, k), c in entry.items()
        }
        for entry in entries
    ]


def _assumption(e: Expr) -> Optional[str]:
    prim = e.primitive()
    try:
        prim.as_fraction()
        return None
    except ExprError:
        return f"{pretty(prim)} != 0"


def nullspace(rows: Sequence[Row], ncols: int) -> NullspaceResult:
    """Basis of  {v : A v = 0}  over the parameter fraction field.

    Each row is a nonempty raw `Row`: every entry a nonempty dict of nonzero
    coefficients, as `linear_solve` builds them.

    Rows equal after `_normalize`, that is up to a rational times a parameter
    monomial, say the same thing: the result, the order of the assumptions
    included, is that of the rows with every repeat of an earlier row
    removed.  Only the rows where a repeat can matter are normalized:
    - A parameter that divides every entry of a row is assumed nonzero.  That
      needs the row's shared monomial only, and no row adds such a note once
      every parameter has one.
    - Single-entry propagation sweeps the raw rows in order.  Equal rows have
      the same columns.  So when a repeat is left with one live column, the
      first row it repeats is still in the sweeps and had two or more live
      columns when it was visited: had it been left with one, it would have
      forced that column, and the repeat would now be empty.  A repeat can
      thus only matter at the moment it would force a column, and it is
      dropped there, which leaves the forced set and the order of the notes
      as without repeats.  A raw and a normalized coefficient give the same
      note, since `_assumption` takes the primitive part.
    - The rows left for the dense core are normalized as whole rows, and
      repeats are dropped; only then do the rows lose their forced columns
      and become `Expr`s.
    """
    assumptions: List[str] = []
    forced_zero: set = set()

    # parameters without a content note; every one a row holds has a slot
    unnoted = len(Monomial(KIND_MASKS[sy.K_PARAM]).symbols())
    cols_of: List[Tuple[int, ...]] = []
    same_cols: Dict[Tuple[int, ...], List[int]] = {}
    for i, row in enumerate(rows):
        cols = tuple(sorted(row))
        cols_of.append(cols)
        same_cols.setdefault(cols, []).append(i)
        if unnoted:
            shared = None
            for entry in row.values():
                for m, _k in entry:
                    shared = m if shared is None else mono_gcd(shared, m)
                if not shared:
                    break
            for s in shared.symbols() if shared else ():
                note = f"{s.pretty()} != 0"
                if note not in assumptions:
                    assumptions.append(note)
                    unnoted -= 1

    normal: Dict[int, Tuple[List[Dict[TermKey, int]], tuple]] = {}

    def normal_row(i: int) -> Tuple[List[Dict[TermKey, int]], tuple]:
        """Row i over its content, in column order, and its dedup key."""
        if i not in normal:
            _content, scaled = _normalize([rows[i][j] for j in cols_of[i]])
            key = tuple((j, frozenset(entry.items())) for j, entry in zip(cols_of[i], scaled))
            normal[i] = scaled, key
        return normal[i]

    def repeats(i: int) -> bool:
        """Whether an earlier row normalizes to row i."""
        group = same_cols[cols_of[i]]
        return any(normal_row(h)[1] == normal_row(i)[1] for h in group[: group.index(i)])

    # propagate single-entry rows: coeff * c_j = 0 forces c_j = 0
    work: List[Tuple[int, Sequence[int]]] = list(enumerate(cols_of))
    changed = True
    while changed:
        changed = False
        next_work = []
        for i, live in work:
            if not forced_zero.isdisjoint(live):
                live = [j for j in live if j not in forced_zero]
                if not live:
                    continue
            if len(live) == 1:
                if repeats(i):
                    continue
                (j,) = live
                entry = rows[i][j]
                # a one-term entry c*m, m a parameter monomial, is its own content:
                # its primitive part is 1, which gives no note
                if len(entry) > 1:
                    note = _assumption(Expr(entry, None))
                    if note and note not in assumptions:
                        assumptions.append(note)
                forced_zero.add(j)
                changed = True
            else:
                next_work.append((i, live))
        work = next_work

    # the rows left with two or more live columns, repeats dropped
    core: List[Dict[int, Expr]] = [
        {j: Expr(entry, None) for j, entry in zip(cols_of[i], normal_row(i)[0]) if j not in forced_zero}
        for i, _live in work
        if not repeats(i)
    ]

    # dense fraction-free Gauss-Jordan on the remaining core
    cols = sorted({j for row in core for j in row})
    mat: List[List[Expr]] = [[row.get(j, ZERO) for j in cols] for row in core]
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
            if scale != ONE:
                mat[pr] = [scale * v for v in mat[pr]]

    rank = len(pivots) + len(forced_zero)
    basis: List[List[Expr]] = []
    free: List[int] = []
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
        nonzero = [i for i, e in enumerate(vec) if e]
        _, scaled = _normalize([vec[i].terms for i in nonzero])
        for i, entry in zip(nonzero, scaled):
            vec[i] = Expr(entry, None)
        basis.append(vec)
        free.append(j)
    return NullspaceResult(basis=basis, assumptions=assumptions, rank=rank, free=free)


# ---------------------------------------------------------------------------
# spec-level entry point: the nullspace of a list of residual columns
# ---------------------------------------------------------------------------


def linear_solve(
    columns: Iterable[Expr], point: Optional[Dict[sy.Sym, Fraction]] = None
) -> NullspaceResult:
    """Nullspace of  sum_j c_j * columns[j] = 0  over the parameter fraction field.

    Every term of a column is (parameter monomial) * (coordinate monomial) *
    R^(k/2).  Each (coordinate monomial, k) is one row of the matrix and the
    parameter monomials are its entries.  Columns are in normal form, so their
    radical parts may sit at different strata k; they are first multiplied by
    powers of the common kernel R down to the lowest stratum present, so that
    equal functions of the coordinates share a row.  Polynomial rows come
    first, then radical rows, each in order of first appearance: `nullspace`
    breaks pivot ties by row index.  The columns are read one at a time, and
    each polynomial part is split on arrival; only the radical parts wait for
    the kernel.

    With `point`, which binds every parameter of the columns to a rational,
    each entry is the value there, summed per row and column: an entry that
    vanishes is dropped, and so is a row left with none.
    """
    poly_rows: Dict[int, Row] = {}  # keyed by the coordinate part of the monomial
    radical_cols: List[Tuple[int, Expr]] = []
    keys: Dict[int, TermKey] = {}  # one entry key per parameter monomial
    values: Dict[int, Coeff] = {}  # the value of each parameter monomial at the point
    # c * value per (parameter monomial, c): about 1,700 distinct pairs
    # in the 13,000 terms of a scan pass
    products: Dict[Tuple[int, Coeff], Coeff] = {}
    one = (MONE, 0)

    def split(rows: Dict[int, Row], j: int, part: Expr) -> None:
        param = KIND_MASKS[sy.K_PARAM]  # read late: a column may bring a new parameter
        if point is None:
            for (m, _k), c in part.terms.items():
                par = m & param
                key = keys.get(par) or keys.setdefault(par, (Monomial(par), 0))
                rows.setdefault(m ^ par, {}).setdefault(j, {})[key] = c
            return
        at_point: Dict[int, Coeff] = {}
        for (m, _k), c in part.terms.items():
            par = m & param
            if par:
                product = products.get((par, c))
                if product is None:
                    value = values.get(par)
                    if value is None:
                        value = values[par] = math.prod(
                            point[s] ** e for s, e in Monomial(par).powers
                        )
                    product = products[par, c] = _q(value * c)
                if not product:
                    continue
                c = product
            _accumulate(at_point, m ^ par, c)
        for m, c in at_point.items():
            rows.setdefault(m, {})[j] = {one: c}

    ncols = 0
    for j, col in enumerate(columns):
        ncols += 1
        if col.has_radical():
            radical_cols.append((j, col))
            col = col.strata().get(0, ZERO)
        split(poly_rows, j, col)
        del col  # not alive while the next column is built
    kernel = common_kernel(*(col for _j, col in radical_cols))
    k_min = min((k for _j, col in radical_cols for _m, k in col.terms if k), default=0)
    radical_rows: Dict[int, Row] = {}
    for j, col in radical_cols:
        for k, part in col.strata().items():
            if k:
                for _ in range((k - k_min) // 2):
                    part = part * kernel
                split(radical_rows, j, part)
    return nullspace([*poly_rows.values(), *radical_rows.values()], ncols)


# ---------------------------------------------------------------------------
# dense rational helpers
# ---------------------------------------------------------------------------


def rational_rref(mat: List[List[Fraction]]) -> Tuple[List[List[Fraction]], List[int]]:
    """Reduced row echelon form over Q; returns (rref, pivot column indices)."""
    mat = [list(map(Fraction, row)) for row in mat]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
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

