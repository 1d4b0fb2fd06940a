"""Reference claims this tool audits, and the one table every claim row comes from.

The literature on this equation states a point-symmetry algebra, group
flows, adjoint closed forms, optimal systems and a family of third-order
local symmetries.  Each statement is one `Claim` in `catalogue()`: the row
name, the claimed text, the claimed fixture and the comparator that judges
a derived value against that fixture.  Commands derive their own results
and hand them to the claim, so every verdict is computed; the claimed
scaling weight (3) and the claimed generator family are inputs to be
checked, never ground truth.

The comparators:
  "equal"                   the derived value equals the fixture;
  "equal after eps -> -eps" it does, or it does once eps -> -eps and
                            exp(eps) -> exp(eps)^-1 are substituted into it;
  "one of"                  it is a member of the claimed list;
  "residual = 0"            the derived value is a residual, and it is zero;
  "n/a"                     nothing is claimed to compare with.

The table is built on first use and each fixture when its claim is first
judged; both are then shared by every call, so never mutated.  Fixtures keep
alpha and beta symbolic.

The notation u_{x^3} is ambiguous between the third derivative and the cube
of u_x; candidate builders take an `interp` argument ("third" | "cubed")
and the c3-member of the claimed family is provided in both of its printed
variants (leading u_{t^3} vs leading u_{x^3}).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Sequence

from . import symbols as sy
from .expr import Expr, constant, sqrt, symbol
from .printer import join_signed, pretty

CLAIMED_SCALING_WEIGHT = 3

# [v1,v3] = v1, [v2,v3] = -v2, everything else 0, as c[i][j] = [v_i, v_j]
CLAIMED_STRUCTURE = (
    ((0, 0, 0), (0, 0, 0), (1, 0, 0)),
    ((0, 0, 0), (0, 0, 0), (0, -1, 0)),
    ((-1, 0, 0), (0, 1, 0), (0, 0, 0)),
)
CLAIMED_OPTIMAL_1D = ("v1 + a*v2", "b*v1 + v2", "v3")
CLAIMED_OPTIMAL_2D = (("v1", "v2"), ("v1", "v3"), ("v2", "v3"))

EQUAL = "equal"
EQUAL_UP_TO_EPS = "equal after eps -> -eps"
ONE_OF = "one of"
RESIDUAL_ZERO = "residual = 0"
NOT_APPLICABLE = "n/a"


def _u(i, j=0):
    return symbol(sy.jet(i, j))


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


def _claimed_scaling() -> Expr:
    """x u_x - t u_t - 3 u, the claimed weight-3 scaling generator."""
    return (
        symbol(sy.X) * _u(1)
        - symbol(sy.T) * _u(0, 1)
        - constant(CLAIMED_SCALING_WEIGHT) * _u(0)
    )


def _claimed_adjoint(k: int):
    """The claimed closed form of Ad(exp(eps v_k)) on (c1, c2, c3), as printed."""
    c1, c2, c3 = (symbol(sy.const(f"c{i}")) for i in (1, 2, 3))
    eps, e = symbol(sy.eps()), symbol(sy.exp_eps())
    return {
        1: (c1 + eps * c3, c2, c3),
        2: (c1, c2 + eps * c3, c3),
        3: (e ** -1 * c1, e * c2, c3),
    }[k]


def _claimed_shift(k: int):
    """(x, t, u) with eps added to coordinate k: the claimed translation flow."""
    coords = [symbol(sy.X), symbol(sy.T), symbol(sy.U)]
    coords[k] = coords[k] + symbol(sy.eps())
    return tuple(coords)


def _flip_eps(image: Sequence[Expr]):
    flip = {sy.eps(): -symbol(sy.eps()), sy.exp_eps(): symbol(sy.exp_eps()) ** -1}
    return tuple(e.substitute(flip) for e in image)


def _factor_text(s: sy.Sym, k: int) -> str:
    """eps, eps^2, exp(eps), exp(-eps), exp(2*eps): one group-parameter factor."""
    if s.kind != sy.K_EXP:
        return s.pretty() + (f"^{k}" if k != 1 else "")
    scale = {1: "", -1: "-"}.get(k, f"{k}*")
    return f"exp({scale}{s.data[0]})"


def map_text(image: Sequence[Expr]) -> str:
    """A map in the notation its claim is printed in, group-parameter factors
    first: (c1 - eps*c3, c2, c3), (exp(eps)c1, exp(-eps)c2, c3), (x + eps, t, u)."""
    parts = []
    for e in image:
        terms = []
        groups = e.collect(lambda s: s.kind in (sy.K_EPS, sy.K_EXP))
        for mono, rest in sorted(groups.items(), key=lambda item: item[0].powers):
            body = pretty(rest) if len(rest.terms) == 1 else f"({pretty(rest)})"
            negative, body = body.startswith("-"), body.lstrip("-")
            factor = "*".join(_factor_text(s, k) for s, k in mono.powers)
            if factor:
                glue = "" if factor.endswith(")") else "*"
                body = factor if body == "1" else factor + glue + body
            terms.append((negative, body))
        parts.append(join_signed(terms))
    return "(" + ", ".join(parts) + ")"


def _residual_text(r: Expr) -> str:
    return "residual = 0" if r.is_zero() else "residual != 0"


class Claim:
    """One claim and how to judge it.

    `topic` names what a command derives to meet the claim ("adjoint F1",
    "verify [third]", ...); `build` makes the claimed fixture.  A row's
    derived text is `same` when the claim holds and `same` is set, else
    `show` of the derived value.  A plain class: building a NamedTuple class
    at import would cost more than the rest of this module's import.
    """

    __slots__ = ("topic", "name", "claimed", "build", "compare", "show", "same")

    def __init__(self, topic: str, name: str, claimed: str, build: Callable[[], object],
                 compare: str = EQUAL, show: Callable[[object], str] = str,
                 same: Optional[str] = None):
        self.topic, self.name, self.claimed, self.build = topic, name, claimed, build
        self.compare, self.show, self.same = compare, show, same

    def fixture(self):
        """The claimed fixture, built when first needed and shared after."""
        return _fixture(self)

    def judge(self, derived):
        """The verdict on a derived value: True, False, "up to eps -> -eps" or "n/a"."""
        if self.compare == NOT_APPLICABLE:
            return "n/a"
        if self.compare == RESIDUAL_ZERO:
            return derived.is_zero()
        if self.compare == ONE_OF:
            return derived in self.fixture()
        if derived == self.fixture():
            return True
        if self.compare == EQUAL_UP_TO_EPS and _flip_eps(derived) == self.fixture():
            return "up to eps -> -eps"
        return False

    def row(self, derived) -> dict:
        """The derived-vs-claimed report row of a derived value."""
        agrees = self.judge(derived)
        return {
            "name": self.name,
            "claimed": self.claimed,
            "derived": self.same if agrees is True and self.same else self.show(derived),
            "agrees": agrees,
        }


@lru_cache(maxsize=None)
def _fixture(claim: Claim):
    return claim.build()


def _residual_claim(topic: str, name: str, build: Callable[[], Expr]) -> Claim:
    return Claim(topic, name, "residual = 0", build, RESIDUAL_ZERO, _residual_text)


def _reading_claims(interp: str) -> List[Claim]:
    """The claims whose fixtures depend on the reading of u_{x^3}."""
    tag = f"[{interp}]"
    t3_lead = lambda: t3(interp) + _v5_tail(interp)  # noqa: E731
    local = {"v4": lambda: v4(interp), "v5": lambda: v5(interp), "v5-tlead": t3_lead}
    # the general third-order characteristic, one generator per constant:
    # c1 -> t u_t + 3u - x u_x, c3 -> the u_{t^3}-lead polynomial, c4 -> v4
    family = {
        "c1": lambda: -_claimed_scaling(),
        "c2": lambda: _u(0, 1),
        "c3": t3_lead,
        "c4": lambda: v4(interp),
        "c5": lambda: _u(1),
    }
    return [
        *(
            _residual_claim(f"verify {tag}", f"claimed local symmetry {name}{tag}", build)
            for name, build in local.items()
        ),
        *(
            _residual_claim(f"order-3 {tag}", f"claimed family member {c} {tag}", build)
            for c, build in family.items()
        ),
        Claim(
            f"order-3-derived {tag}",
            f"third-order symmetry over kernel 2*beta*u_x^2 + alpha {tag}",
            "none stated", lambda: None, NOT_APPLICABLE, "{} new dimension(s)".format,
        ),
    ]


@lru_cache(maxsize=None)
def catalogue() -> Dict[str, Claim]:
    """Every claim, by row name, in the order the rows print."""
    weight = CLAIMED_SCALING_WEIGHT
    adjoint_maps = {
        2: "(c1, c2 + eps*c3, c3)",
        1: "(c1 + eps*c3, c2, c3)",
        3: "(exp(-eps)c1, exp(eps)c2, c3)",
    }
    entries = [
        _residual_claim("verify", "claimed x-translation (symmetry)", lambda: _u(1)),
        _residual_claim("verify", "claimed t-translation (symmetry)", lambda: _u(0, 1)),
        _residual_claim(
            "verify", f"claimed scaling with weight {weight} (symmetry)", _claimed_scaling
        ),
        *_reading_claims("third"),
        *_reading_claims("cubed"),
        Claim("point dimension", "point algebra dimension", "3", lambda: 3),
        Claim(
            "scaling weight", "scaling weight in x*u_x - t*u_t - c*u", str(weight), lambda: weight
        ),
        *(
            Claim(
                f"order-{n}", f"no nontrivial order-{n} characteristics (ansatz-bounded)",
                "0 new dimensions", lambda: 0, show="{} new dimensions".format,
            )
            for n in (2, 4)
        ),
        Claim(
            "table", "commutator table ([v1,v3]=v1, [v2,v3]=-v2, rest 0)", "as printed",
            lambda: CLAIMED_STRUCTURE, show=lambda _table: "different", same="identical",
        ),
        *(
            Claim(
                f"adjoint F{k}", f"adjoint map F{k}: {printed}", "as printed",
                lambda k=k: _claimed_adjoint(k), EQUAL_UP_TO_EPS, map_text, "identical",
            )
            for k, printed in adjoint_maps.items()
        ),
        Claim(
            "optimal 1d", "one-dimensional optimal system membership",
            " / ".join(CLAIMED_OPTIMAL_1D), lambda: CLAIMED_OPTIMAL_1D, ONE_OF,
        ),
        Claim(
            "optimal 2d", "two-dimensional optimal system membership",
            " / ".join("{%s, %s}" % pair for pair in CLAIMED_OPTIMAL_2D),
            lambda: CLAIMED_OPTIMAL_2D, ONE_OF, lambda pair: "{%s, %s}" % pair,
        ),
        Claim("flow 3", "scaling flow exponents (x, t, u)", "(1, -1, 3)", lambda: (1, -1, 3)),
        *(
            Claim(
                f"flow {k + 1}", f"translation flow G{k + 1}", "coordinate shift",
                lambda k=k: _claimed_shift(k), show=map_text, same="coordinate shift",
            )
            for k in (0, 1)
        ),
    ]
    return {claim.name: claim for claim in entries}


def about(*topics: str) -> List[Claim]:
    """The claims of the given topics, in table order."""
    return [claim for claim in catalogue().values() if claim.topic in topics]
