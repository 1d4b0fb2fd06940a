"""Reference claims this tool audits.

The literature on this equation states a point-symmetry algebra, group
flows, adjoint closed forms, optimal systems and a family of third-order
local symmetries.  Those statements are shipped here as inert fixtures with
no verdicts attached: every command that touches one derives its own result
and prints a derived-vs-claimed diff.  In particular the claimed scaling
weight (3) and the claimed generator family are inputs to be checked, never
ground truth.

The notation u_{x^3} is ambiguous between the third derivative and the cube
of u_x; candidate builders take an `interp` argument ("third" | "cubed")
and the c3-member of the claimed family is provided in both of its printed
variants (leading u_{t^3} vs leading u_{x^3}).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Tuple

from . import symbols as sy
from .expr import Expr, constant, sqrt, symbol

CLAIMED_SCALING_WEIGHT = 3
CLAIMED_FLOW_EXPONENTS = (1, -1, 3)  # x, t, u exponents of the claimed scaling flow
CLAIMED_POINT_DIMENSION = 3

# claimed commutator table: [v1,v3] = v1, [v2,v3] = -v2, everything else 0
CLAIMED_STRUCTURE = {
    (0, 2): (Fraction(1), Fraction(0), Fraction(0)),
    (1, 2): (Fraction(0), Fraction(-1), Fraction(0)),
}

# claimed adjoint closed forms on coefficients (c1, c2, c3), as printed:
#   F1: (c1 + e*c3, c2, c3)   F2: (c1, c2 + e*c3, c3)   F3: (exp(-e)c1, exp(e)c2, c3)
CLAIMED_ADJOINT_SIGNS = {"F1": +1, "F2": +1, "F3": (-1, +1)}

CLAIMED_OPTIMAL_1D = ("v1 + a*v2", "b*v1 + v2", "v3")
CLAIMED_OPTIMAL_2D = (("v1", "v2"), ("v1", "v3"), ("v2", "v3"))


def _u(i, j=0):
    return symbol(sy.jet(i, j))


def claimed_scaling_characteristic() -> Expr:
    """x u_x - t u_t - 3 u, the claimed weight-3 scaling generator."""
    return (
        symbol(sy.X) * _u(1)
        - symbol(sy.T) * _u(0, 1)
        - constant(CLAIMED_SCALING_WEIGHT) * _u(0)
    )


def claimed_point_characteristics() -> Dict[str, Expr]:
    return {
        "v1": _u(1),
        "v2": _u(0, 1),
        "v3": claimed_scaling_characteristic(),
    }


def x3(interp: str) -> Expr:
    """The symbol u_{x^3} under the chosen reading."""
    if interp == "third":
        return _u(3)
    if interp == "cubed":
        return _u(1) ** 3
    raise ValueError(f"unknown interpretation {interp!r}")


def t3(interp: str) -> Expr:
    if interp == "third":
        return _u(0, 3)
    if interp == "cubed":
        return _u(0, 1) ** 3
    raise ValueError(f"unknown interpretation {interp!r}")


def radical_kernel(interp: str) -> Expr:
    """2 beta u_{x^3}^2 + alpha."""
    return constant(2) * symbol(sy.BETA) * x3(interp) ** 2 + symbol(sy.ALPHA)


def v4(interp: str = "third") -> Expr:
    """u_{x^3} / sqrt(2 beta u_{x^3}^2 + alpha)."""
    return x3(interp) * sqrt(radical_kernel(interp)) ** -1


def _v5_tail(interp: str) -> Expr:
    alpha = symbol(sy.ALPHA)
    beta = symbol(sy.BETA)
    return (
        -(beta ** 3) * _u(2) ** 6 * x3(interp)
        - constant(Fraction(3, 2)) * alpha * beta ** 2 * _u(1) * _u(2) ** 4
        - alpha ** 2 * beta * _u(1) ** 3
    )


def v5(interp: str = "third") -> Expr:
    """Polynomial third-order candidate with leading u_{x^3}."""
    return x3(interp) + _v5_tail(interp)


def v5_tlead(interp: str = "third") -> Expr:
    """The c3-member as printed in the general family, leading with u_{t^3}."""
    return t3(interp) + _v5_tail(interp)


def claimed_third_order_family(interp: str = "third") -> Dict[str, Expr]:
    """The claimed general third-order characteristic, one generator per constant.

    c1 -> t u_t + 3u - x u_x, c2 -> u_t, c3 -> the u_{t^3}-lead polynomial,
    c4 -> the radical candidate, c5 -> u_x.
    """
    return {
        "c1": symbol(sy.T) * _u(0, 1) + 3 * _u(0) - symbol(sy.X) * _u(1),
        "c2": _u(0, 1),
        "c3": v5_tlead(interp),
        "c4": v4(interp),
        "c5": _u(1),
    }


def local_symmetry_candidates(interp: str = "third") -> List[Tuple[str, Expr]]:
    """All claimed local-symmetry candidates to verify under one reading."""
    return [
        (f"v4[{interp}]", v4(interp)),
        (f"v5[{interp}]", v5(interp)),
        (f"v5-tlead[{interp}]", v5_tlead(interp)),
    ]


@lru_cache(maxsize=None)
def verify_catalogue(interp: str) -> Tuple[Tuple[str, Expr], ...]:
    """(row name, fixture) for every claim `verify` matches under one reading.

    Built once per reading and shared by every call, so never mutated; the
    fixtures keep alpha and beta symbolic.
    """
    point = claimed_point_characteristics()
    return (
        ("claimed x-translation (symmetry)", point["v1"]),
        ("claimed t-translation (symmetry)", point["v2"]),
        (f"claimed scaling with weight {CLAIMED_SCALING_WEIGHT} (symmetry)", point["v3"]),
    ) + tuple(
        (f"claimed local symmetry {name}", e)
        for name, e in local_symmetry_candidates(interp)
    )
