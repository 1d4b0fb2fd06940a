"""Characterization test for `linear_solve` on seeded random systems.

The bounded scans only ever hand `linear_solve` single-term entries, so this
test covers what they do not:

- multi-term parameter entries such as alpha + 2*beta; a row with one such
  entry forces its column to zero and adds the note "alpha + 2*beta != 0";
- rows that are rational-times-parameter-monomial multiples of each other,
  with negative factors, which normalize to one row (and add content notes);
- columns over the radical kernel 1 + u^2 at different strata.

The printed columns, basis, assumptions (in order) and rank of every system
are pinned in tests/golden/linear_solve.json.  Rewrite it after an intended
change with

    PYTHONPATH=src python tests/test_linsolve_golden.py
"""

import json
import random
from fractions import Fraction
from pathlib import Path

from jetlie import expr as ex
from jetlie import symbols as sy
from jetlie.linsolve import linear_solve
from jetlie.printer import pretty

GOLDEN = Path(__file__).parent / "golden" / "linear_solve.json"
SYSTEMS = 48

alpha = ex.symbol(sy.ALPHA)
beta = ex.symbol(sy.BETA)
x = ex.symbol(sy.X)
u = ex.symbol(sy.U)
ux = ex.symbol(sy.jet(1, 0))
ROOT = ex.sqrt(ex.ONE + u * u)

PARAMETER_MONOMIALS = [ex.ONE, alpha, beta, alpha * beta, alpha * alpha]
MULTI_TERM = [alpha + 2 * beta, 2 * alpha - beta, alpha + ex.ONE, alpha * beta - 3 * beta]
# distinct coordinate monomials, so distinct equations land in distinct rows
COORDINATES = [ex.ONE, x, u, x * u, ux, x * x, u * ux, x * ux]


def _rational(rng):
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 3, 5]), rng.choice([1, 1, 2, 3]))


def _entry(rng):
    if rng.random() < 0.25:
        return rng.choice(MULTI_TERM).scale(_rational(rng))
    return rng.choice(PARAMETER_MONOMIALS).scale(_rational(rng))


def _equations(rng, ncols):
    """Coefficient lists, one per equation, with multiples and single entries."""
    eqs = []
    for _ in range(rng.randint(1, 3)):
        eqs.append([_entry(rng) if rng.random() < 0.6 else ex.ZERO for _ in range(ncols)])
    if rng.random() < 0.5:
        # a multiple of an earlier equation by a rational times a parameter monomial
        factor = rng.choice(PARAMETER_MONOMIALS).scale(_rational(rng))
        eqs.append([factor * e for e in rng.choice(eqs)])
    if rng.random() < 0.4:
        # one multi-term entry alone in its row
        eq = [ex.ZERO] * ncols
        eq[rng.randrange(ncols)] = rng.choice(MULTI_TERM).scale(_rational(rng))
        eqs.append(eq)
    rng.shuffle(eqs)
    return eqs


def system(seed):
    """The columns of system `seed`; every fourth one carries radical parts."""
    rng = random.Random(seed)
    ncols = rng.randint(1, 4)
    coords = rng.sample(COORDINATES, len(COORDINATES))
    polynomial = _equations(rng, ncols)
    radical = _equations(rng, ncols) if seed % 4 == 3 else []
    strata = [rng.choice([-1, 1, 3]) for _ in range(ncols)]
    columns = []
    for j in range(ncols):
        col = ex.ZERO
        for i, eq in enumerate(polynomial):
            col = col + eq[j] * coords[i]
        for i, eq in enumerate(radical):
            col = col + eq[j] * coords[-1 - i] * ROOT ** strata[j]
        columns.append(col)
    return columns


def characterize(seed):
    columns = system(seed)
    sol = linear_solve(columns)
    return {
        "columns": [pretty(c) for c in columns],
        "basis": [[pretty(e) for e in vec] for vec in sol.basis],
        "assumptions": sol.assumptions,
        "rank": sol.rank,
    }


def _all():
    return {str(seed): characterize(seed) for seed in range(SYSTEMS)}


def test_linear_solve_matches_golden():
    expected = json.loads(GOLDEN.read_text())
    assert len(expected) == SYSTEMS
    for seed, got in _all().items():
        assert got == expected[seed], f"system {seed}"


def test_systems_cover_the_cases():
    golden = json.loads(GOLDEN.read_text()).values()
    notes = [note for case in golden for note in case["assumptions"]]
    assert any(" + " in note or " - " in note for note in notes)
    assert any("sqrt" in c for case in golden for c in case["columns"])
    assert any(case["basis"] for case in golden)
    assert any(not case["basis"] for case in golden)


def test_basis_vectors_solve_the_system():
    for seed in range(SYSTEMS):
        columns = system(seed)
        for vec in linear_solve(columns).basis:
            total = ex.ZERO
            for v, col in zip(vec, columns):
                total = total + v * col
            assert total.is_zero(), f"system {seed}"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_all(), indent=1, sort_keys=True) + "\n")
