"""Differential tests of `linsolve.nullspace` against eager deduplication.

`nullspace` normalizes a row only when it is about to force a column while an
earlier row has the same columns, or when it reaches the dense core.
`eager_nullspace` below is the solver as it was before that: it normalizes
every row up front, keeps the first row of each normal form, and then runs
the same propagation and the same fraction-free core on `Expr` rows.  The
two must give equal `NullspaceResult`s, down to the order of the
assumptions and the dict order of every basis entry.
"""

from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from jetlie import expr as ex  # noqa: E402
from jetlie import symbols as sy  # noqa: E402
from jetlie.expr import ONE, ZERO, Expr, expr_div_exact, mono_mul, monomial  # noqa: E402
from jetlie.linsolve import (  # noqa: E402
    LinearSolveError,
    NullspaceResult,
    _assumption,
    _normalize,
    nullspace,
)

SETTINGS = settings(derandomize=True, max_examples=100, deadline=None)


def eager_nullspace(rows, ncols: int) -> NullspaceResult:
    """`nullspace` with every row normalized and deduplicated before propagation."""
    assumptions: List[str] = []
    forced_zero: set = set()

    work: List[Dict[int, Expr]] = []
    seen = set()
    for row in rows:
        cols = sorted(row)
        content, scaled = _normalize([row[j] for j in cols])
        for s in content.symbols():
            note = f"{s.pretty()} != 0"
            if note not in assumptions:
                assumptions.append(note)
        key = tuple((j, frozenset(entry.items())) for j, entry in zip(cols, scaled))
        if key not in seen:
            seen.add(key)
            work.append({j: Expr(entry, None) for j, entry in zip(cols, scaled)})

    changed = True
    while changed:
        changed = False
        next_work = []
        for row in work:
            if not forced_zero.isdisjoint(row):
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
                        raise LinearSolveError("inexact division")
                    val = q
                mat[r][c] = val
            mat[r][pc] = ZERO
        used_rows.add(pr)
        pivots.append((pr, pc))
        prev_pivot = pivot

    d = prev_pivot
    pivot_of_col = {pc: pr for pr, pc in pivots}
    for pr, pc in pivots:
        scale = expr_div_exact(d, mat[pr][pc])
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


def _ordered(result: NullspaceResult):
    """The result with every basis entry as its list of terms, in dict order."""
    return (
        [[list(e.terms.items()) for e in vec] for vec in result.basis],
        result.assumptions,
        result.rank,
    )


def assert_same(rows, ncols):
    got, want = nullspace(rows, ncols), eager_nullspace(rows, ncols)
    assert got == want
    assert _ordered(got) == _ordered(want)


# -- rows as `linear_solve` builds them ---------------------------------------------

NCOLS = 6
param_monomials = st.tuples(st.integers(0, 2), st.integers(0, 2)).map(
    lambda e: monomial([(sy.ALPHA, e[0]), (sy.BETA, e[1])])
)
coefficients = st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool)
# one or more terms: a multi-term entry left alone in a row writes a note
# such as "alpha + 2*beta != 0"
entries = st.dictionaries(param_monomials, coefficients, min_size=1, max_size=3).map(
    lambda terms: {(m, 0): ex._q(c) for m, c in terms.items()}
)
columns = st.sets(st.integers(0, NCOLS - 1), min_size=1, max_size=3)


def _row(cols, entry_list) -> Dict:
    return {j: entry for j, entry in zip(sorted(cols), entry_list)}


fresh_rows = columns.flatmap(
    lambda cols: st.lists(entries, min_size=len(cols), max_size=len(cols)).map(
        lambda es: _row(cols, es)
    )
)


def _scaled(row, c: Fraction, m) -> Dict:
    """c * m * row, keeping the dict order of every entry."""
    return {
        j: {(mono_mul(m, key), 0): ex._q(c * v) for (key, _k), v in entry.items()}
        for j, entry in row.items()
    }


@st.composite
def row_lists(draw):
    """Rows where repeats matter: fresh rows (one-column rows among them),
    rows scaled by a rational times a parameter monomial, and rows with the
    columns of an earlier row but other, usually not proportional, entries."""
    rows = [draw(fresh_rows)]
    for _ in range(draw(st.integers(0, 9))):
        kind = draw(st.sampled_from(["fresh", "single", "scaled", "scaled", "same columns"]))
        if kind == "fresh":
            rows.append(draw(fresh_rows))
        elif kind == "single":
            rows.append({draw(st.integers(0, NCOLS - 1)): draw(entries)})
        else:
            earlier = draw(st.sampled_from(rows))
            if kind == "scaled":
                rows.append(_scaled(earlier, draw(coefficients), draw(param_monomials)))
            else:
                es = draw(st.lists(entries, min_size=len(earlier), max_size=len(earlier)))
                rows.append(_row(earlier, es))
    return rows


@SETTINGS
@given(row_lists())
def test_nullspace_matches_eager_deduplication(rows):
    assert_same(rows, NCOLS)


def test_a_repeat_left_with_one_column_does_not_reorder_the_notes():
    """r2 = 2*r0 is left with column 0 in the first sweep, after r1 forced
    column 1.  Forcing it there would write its note before r3's; without it
    r0 forces column 0 in the second sweep, after r3 forced column 5."""
    alpha, beta = ex.symbol(sy.ALPHA), ex.symbol(sy.BETA)

    def entry(e):
        return dict(e.terms)

    r0 = {0: entry(alpha + 2 * beta), 1: entry(ONE)}
    r1 = {1: entry(ONE)}
    r2 = {j: entry(2 * Expr(e, None)) for j, e in r0.items()}
    r3 = {5: entry(2 * alpha - beta)}
    rows = [r0, r1, r2, r3]
    result = nullspace(rows, 6)
    assert result.assumptions == ["2*alpha - beta != 0", "alpha + 2*beta != 0"]
    assert_same(rows, 6)
