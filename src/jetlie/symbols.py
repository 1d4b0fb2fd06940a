"""Symbol identities for the expression kernel.

Every coordinate, parameter, unknown constant and auxiliary quantity is a
`Sym`, the tuple `(kind, data)`.  Symbols are immutable, hashable and
totally ordered; hashing, equality and the order are those of the tuple, so
a symbol is its own sort key, and the order fixes the canonical monomial
ordering used everywhere else.  The kind tags are contiguous from 0.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Tuple

# kind tags, in canonical sort order
K_VAR = 0  # independent variables x, t
K_JET = 1  # derivative coordinates u_{x^i t^j}
K_PARAM = 2  # equation parameters (printed a/b, pretty alpha/beta)
K_CONST = 3  # unknown or free constants (c1.., family parameters)
K_ODE = 4  # reduced-ODE variables z, w, w', ...
K_EPS = 5  # group parameters
K_EXP = 6  # exp(group parameter); the only kind allowed negative exponents


class Sym(NamedTuple):
    """A symbol, the tuple (kind, data).

    Its hash is hash((kind, data)) and its order the tuple order, both
    computed by the tuple type itself.
    """

    kind: int
    data: tuple

    # -- structured accessors ------------------------------------------------

    @property
    def jet_orders(self) -> Tuple[int, int]:
        assert self.kind == K_JET
        return self.data  # (i, j)

    @property
    def jet_order(self) -> int:
        i, j = self.jet_orders
        return i + j

    # -- printing ------------------------------------------------------------

    def pretty(self) -> str:
        return _pretty_name(self)

    def grammar(self) -> str:
        """Name in the ASCII input grammar; raises for symbols outside it."""
        name = _grammar_name(self)
        if name is None:
            raise ValueError(f"symbol {self.pretty()!r} has no grammar form")
        return name

    def __repr__(self):
        return f"Sym({self.pretty()})"


def _pretty_name(s: Sym) -> str:
    if s.kind == K_VAR:
        return s.data[1]
    if s.kind == K_JET:
        i, j = s.data
        if i == 0 and j == 0:
            return "u"
        xs = "x" * i if i <= 2 else f"x{i}"
        ts = "t" * j if j <= 2 else f"t{j}"
        return "u_" + xs + ts
    if s.kind == K_PARAM:
        return {"a": "alpha", "b": "beta"}[s.data[0]]
    if s.kind == K_CONST:
        return s.data[0]
    if s.kind == K_ODE:
        name, order = s.data
        if name == "z":
            return "z"
        return "w" + "'" * order
    if s.kind == K_EPS:
        return s.data[0]
    if s.kind == K_EXP:
        return f"exp({s.data[0]})"
    raise AssertionError(s.kind)


def _grammar_name(s: Sym):
    if s.kind == K_VAR:
        return s.data[1]
    if s.kind == K_JET:
        i, j = s.data
        if i == 0 and j == 0:
            return "u"
        return f"u[{i},{j}]"
    if s.kind == K_PARAM:
        return s.data[0]
    if s.kind == K_CONST:
        name = s.data[0]
        if name.startswith("c") and name[1:].isdigit():
            return name
        return None
    return None


# -- constructors ------------------------------------------------------------

X = Sym(K_VAR, (0, "x"))
T = Sym(K_VAR, (1, "t"))
ALPHA = Sym(K_PARAM, ("a",))
BETA = Sym(K_PARAM, ("b",))
Z = Sym(K_ODE, ("z", 0))


@lru_cache(maxsize=None)
def jet(i: int, j: int = 0) -> Sym:
    if i < 0 or j < 0:
        raise ValueError(f"negative jet orders ({i}, {j})")
    return Sym(K_JET, (i, j))


U = jet(0, 0)


def const(name: str) -> Sym:
    return Sym(K_CONST, (name,))


def ode_w(order: int) -> Sym:
    return Sym(K_ODE, ("w", order))


def eps(name: str = "eps") -> Sym:
    return Sym(K_EPS, (name,))


def exp_eps(name: str = "eps") -> Sym:
    return Sym(K_EXP, (name,))


def is_coordinate(s: Sym) -> bool:
    """True for jet-space coordinates (x, t and derivative symbols)."""
    return s.kind in (K_VAR, K_JET)


def allows_negative_power(s: Sym) -> bool:
    return s.kind == K_EXP
