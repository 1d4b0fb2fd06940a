"""Deterministic printing of expressions.

`grammar` emits strings in the ASCII input grammar (round-trips through the
parser); `pretty` uses readable names (alpha, u_x, Q_{u_x,u_x}, w') and is
what reports print.  Term order is graded-lex descending, polynomial part
before the radical stratum, so output is stable for golden tests.
"""

from __future__ import annotations

from .expr import Coeff, Expr, Monomial, grlex_key


class PrintError(ValueError):
    pass


def _name(sym, mode: str) -> str:
    return sym.grammar() if mode == "grammar" else sym.pretty()


def _mono_str(m: Monomial, mode: str) -> str:
    parts = []
    for s, e in m.powers:
        base = _name(s, mode)
        parts.append(base if e == 1 else f"{base}^{e}")
    return "*".join(parts)


def _coeff_str(c: Coeff) -> str:
    c = abs(c)
    if c.denominator == 1:
        return str(c.numerator)
    return f"{c.numerator}/{c.denominator}"


def _term_str(m: Monomial, k: int, c: Coeff, rad_str: str, mode: str) -> str:
    pieces = []
    if abs(c) != 1 or (m.is_unit() and k == 0):
        pieces.append(_coeff_str(c))
    ms = _mono_str(m, mode)
    if ms:
        pieces.append(ms)
    out = "*".join(pieces)
    if k > 0:
        rad = f"sqrt({rad_str})" + (f"^{k}" if k != 1 else "")
        out = f"{out}*{rad}" if out else rad
    elif k < 0:
        rad = f"sqrt({rad_str})" + (f"^{-k}" if k != -1 else "")
        out = f"{out or '1'}/{rad}"
    return out


def _render(e: Expr, mode: str) -> str:
    if e.is_zero():
        return "0"
    rad_str = ""
    if e.has_radical():
        rad_str = _render(e.radicand, mode)
    # polynomial stratum first, then radical terms, grlex descending inside
    by_stratum = {}
    for key in e.terms:
        by_stratum.setdefault(key[1], []).append(key)
    grlex = grlex_key(m for m, _k in e.terms)
    out = []
    for k in sorted(by_stratum, key=lambda k: (k != 0, k)):
        group = sorted(by_stratum[k], key=lambda key: grlex(key[0]), reverse=True)
        for m, kk in group:
            c = e.terms[(m, kk)]
            out.append((c < 0, _term_str(m, kk, c, rad_str, mode)))
    return join_signed(out)


def join_signed(terms) -> str:
    """Join (is negative, magnitude text) pairs as "a - b + c"; "0" for none."""
    text = " ".join(("- " if negative else "+ ") + body for negative, body in terms)
    if not text:
        return "0"
    return text[2:] if text[0] == "+" else "-" + text[2:]


def grammar(e: Expr) -> str:
    return _render(e, "grammar")


def pretty(e: Expr) -> str:
    return _render(e, "pretty")
