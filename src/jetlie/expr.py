"""Exact symbolic expressions with a unique normal form.

An `Expr` is a sparse polynomial over Q in `Sym` coordinates, optionally
carrying a single radical kernel R: terms are coeff * monomial * R^(k/2)
with k an odd integer (even radical powers fold into the polynomial part).
Two expressions are mathematically equal iff their normal forms compare
equal, which makes zero-testing on this class decidable: the polynomial
part and the radical stratum must each vanish.

Coefficients are `fractions.Fraction` throughout; nothing here ever
touches floating point except the explicitly-floating evaluation mode.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Callable, Dict, Iterable, Optional, Tuple

from .symbols import Sym, allows_negative_power

Q = Fraction
QZERO = Fraction(0)
QONE = Fraction(1)


class ExprError(ValueError):
    pass


class KernelConflictError(ExprError):
    """Two distinct radical kernels met in one expression."""


# ---------------------------------------------------------------------------
# monomials
# ---------------------------------------------------------------------------


class Monomial:
    """A product of symbol powers.

    Invariant: `powers` is sorted by `Sym.sort_key`, holds each symbol at most
    once and no zero exponent, and only `K_EXP` symbols carry negative
    exponents.  `monomial()` establishes it for arbitrary input; `mono_mul`
    and `mono_div` rely on it to merge two power tuples in one pass.
    """

    __slots__ = ("powers", "_hash")

    def __init__(self, powers: Tuple[Tuple[Sym, int], ...]):
        self.powers = powers
        self._hash = hash(powers)

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.powers == other.powers

    def __repr__(self):
        if not self.powers:
            return "1"
        return "*".join(
            s.pretty() + (f"^{e}" if e != 1 else "") for s, e in self.powers
        )

    def degree(self) -> int:
        return sum(e for _, e in self.powers)

    def exponent(self, s: Sym) -> int:
        for sym, e in self.powers:
            if sym == s:
                return e
        return 0

    def symbols(self):
        return [s for s, _ in self.powers]

    def is_unit(self) -> bool:
        return not self.powers


MONE = Monomial(())


def monomial(pairs: Iterable[Tuple[Sym, int]]) -> Monomial:
    acc: Dict[Sym, int] = {}
    for s, e in pairs:
        if e == 0:
            continue
        acc[s] = acc.get(s, 0) + e
        if acc[s] == 0:
            del acc[s]
    for s, e in acc.items():
        if e < 0 and not allows_negative_power(s):
            raise ExprError(f"negative exponent on {s.pretty()}")
    return Monomial(tuple(sorted(acc.items(), key=lambda p: p[0].sort_key())))


def _merge_powers(p1, p2, sign: int):
    """Sorted powers of p1 * p2^sign, for two sorted power tuples."""
    out = []
    i = j = 0
    n1, n2 = len(p1), len(p2)
    while i < n1 and j < n2:
        a = p1[i]
        b = p2[j]
        ka = a[0]._key
        kb = b[0]._key
        if ka < kb:
            out.append(a)
            i += 1
        elif kb < ka:
            out.append(b if sign > 0 else (b[0], -b[1]))
            j += 1
        else:
            e = a[1] + sign * b[1]
            if e:
                out.append((a[0], e))
            i += 1
            j += 1
    out.extend(p1[i:])
    out.extend(p2[j:] if sign > 0 else ((s, -e) for s, e in p2[j:]))
    return tuple(out)


def mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    if not m1.powers:
        return m2
    if not m2.powers:
        return m1
    return Monomial(_merge_powers(m1.powers, m2.powers, 1))


def mono_divides(d: Monomial, m: Monomial) -> bool:
    return all(m.exponent(s) >= e for s, e in d.powers)


def mono_div(m: Monomial, d: Monomial) -> Monomial:
    powers = _merge_powers(m.powers, d.powers, -1)
    bad = [s for s, e in powers if e < 0 and not allows_negative_power(s)]
    if bad:
        # name the symbol `monomial()` would: those of m first, then those of d
        in_m = {s for s, _ in m.powers}
        first = next((s for s in bad if s in in_m), bad[0])
        raise ExprError(f"negative exponent on {first.pretty()}")
    return Monomial(powers)


def mono_cmp(m1: Monomial, m2: Monomial) -> int:
    """Graded lexicographic comparison over the global symbol order."""
    d1, d2 = m1.degree(), m2.degree()
    if d1 != d2:
        return -1 if d1 < d2 else 1
    i, j = 0, 0
    p1, p2 = m1.powers, m2.powers
    while i < len(p1) and j < len(p2):
        s1, e1 = p1[i]
        s2, e2 = p2[j]
        if s1 == s2:
            if e1 != e2:
                return 1 if e1 > e2 else -1
            i += 1
            j += 1
        elif s1.sort_key() < s2.sort_key():
            return 1 if e1 > 0 else -1
        else:
            return -1 if e2 > 0 else 1
    if i < len(p1):
        return 1 if p1[i][1] > 0 else -1
    if j < len(p2):
        return -1 if p2[j][1] > 0 else 1
    return 0


_mono_sort_key = functools.cmp_to_key(mono_cmp)


# ---------------------------------------------------------------------------
# raw polynomial helpers (dict Monomial -> Fraction, no radical)
# ---------------------------------------------------------------------------

Poly = Dict[Monomial, Fraction]


def _accumulate(acc: dict, key, c: Fraction):
    """acc[key] += c for a nonzero c, dropping the key when the sum vanishes."""
    v = acc.get(key)
    if v is None:
        acc[key] = c
    else:
        v += c
        if v:
            acc[key] = v
        else:
            del acc[key]


def _padd_into(acc: Poly, p: Poly):
    for m, c in p.items():
        _accumulate(acc, m, c)


def _pmul(p1: Poly, p2: Poly) -> Poly:
    acc: Poly = {}
    for m1, c1 in p1.items():
        for m2, c2 in p2.items():
            _accumulate(acc, mono_mul(m1, m2), c1 * c2)
    return acc


def _plead(p: Poly) -> Monomial:
    return max(p, key=_mono_sort_key)


def _pdiv_exact(num: Poly, den: Poly) -> Optional[Poly]:
    """num / den when exact, else None.  den must be nonzero."""
    if not num:
        return {}
    rem = dict(num)
    lead = _plead(den)
    lead_c = den[lead]
    quot: Poly = {}
    while rem:
        rl = _plead(rem)
        if not mono_divides(lead, rl):
            return None
        qm = mono_div(rl, lead)
        qc = rem[rl] / lead_c
        quot[qm] = quot.get(qm, QZERO) + qc
        for m, c in den.items():
            _accumulate(rem, mono_mul(qm, m), -qc * c)
    return quot


def _int_square_part(n: int) -> int:
    """Largest s with s*s dividing n (n > 0)."""
    s = 1
    p = 2
    while p * p <= n:
        while n % (p * p) == 0:
            n //= p * p
            s *= p
        if n % p == 0:
            n //= p
        p += 1 if p == 2 else 2
    r = math.isqrt(n)
    if r * r == n:
        s *= r
    return s


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------

TermKey = Tuple[Monomial, int]


class Expr:
    """Normal-form expression.  Immutable by convention."""

    __slots__ = ("terms", "radicand", "_hash")

    def __init__(self, terms: Dict[TermKey, Fraction], radicand: "Optional[Expr]"):
        self.terms = terms
        self.radicand = radicand
        self._hash = None

    # -- canonical construction ----------------------------------------------

    @staticmethod
    def _build(terms: Dict[TermKey, Fraction], radicand: "Optional[Expr]") -> "Expr":
        terms = {key: c for key, c in terms.items() if c}
        if not any(k for _, k in terms):
            return Expr(terms, None)
        # the keys (m, k) are unique, so each stratum takes its terms as they are
        poly: Poly = {}
        strata: Dict[int, Poly] = {}
        for (m, k), c in terms.items():
            if k == 0:
                poly[m] = c
            else:
                strata.setdefault(k, {})[m] = c

        if radicand is None or radicand.is_zero():
            raise ExprError("radical power without a radical kernel")
        rad_poly = radicand._poly()
        # fold even powers of the kernel into the polynomial part
        for k in sorted(strata):
            if k % 2 == 0:
                if k < 0:
                    raise ExprError(
                        "integer negative power of the radical kernel is "
                        "not representable; multiply through by the kernel"
                    )
                piece = strata.pop(k)
                for _ in range(k // 2):
                    piece = _pmul(piece, rad_poly)
                _padd_into(poly, piece)

        if strata:
            m_min = min(strata)
            w: Poly = {}
            for k, p in strata.items():
                shifted = p
                for _ in range((k - m_min) // 2):
                    shifted = _pmul(shifted, rad_poly)
                _padd_into(w, shifted)
            # pull kernel factors out of the stratum polynomial; skipped for a
            # constant kernel, where the quotient never terminates
            if not (len(rad_poly) == 1 and MONE in rad_poly):
                while w:
                    q = _pdiv_exact(w, rad_poly)
                    if q is None:
                        break
                    w = q
                    m_min += 2
            if w:
                out = {(m, 0): c for m, c in poly.items()}
                for m, c in w.items():
                    out[(m, m_min)] = c
                return Expr(out, radicand)

        return Expr({(m, 0): c for m, c in poly.items()}, None)

    def _poly(self) -> Poly:
        """Polynomial part as a raw dict; requires no radical stratum."""
        assert self.radicand is None
        return {m: c for (m, k), c in self.terms.items()}

    # -- basics ----------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, Expr):
            return NotImplemented
        return self.terms == other.terms and self.radicand == other.radicand

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(
                (frozenset(self.terms.items()), self.radicand)
            )
        return self._hash

    def __repr__(self):
        from .printer import pretty

        return f"Expr({pretty(self)})"

    def free_symbols(self):
        out = set()
        for (m, _k) in self.terms:
            out.update(m.symbols())
        if self.radicand is not None and any(k for (_, k) in self.terms):
            out.update(self.radicand.free_symbols())
        return out

    def has_radical(self) -> bool:
        return any(k for (_, k) in self.terms)

    def as_fraction(self) -> Fraction:
        if not self.terms:
            return QZERO
        if len(self.terms) == 1:
            ((m, k), c), = self.terms.items()
            if m.is_unit() and k == 0:
                return c
        raise ExprError("expression is not a rational constant")

    def strata(self) -> Dict[int, "Expr"]:
        """Split into radical strata: {k: pure polynomial P_k}, e = sum P_k R^(k/2)."""
        out: Dict[int, Poly] = {}
        for (m, k), c in self.terms.items():
            out.setdefault(k, {})[m] = c
        return {
            k: Expr({(m, 0): c for m, c in p.items()}, None) for k, p in out.items()
        }

    # -- ring operations --------------------------------------------------------

    def __add__(self, other):
        other = as_expr(other)
        rad = common_kernel(self, other)
        acc = dict(self.terms)
        for key, c in other.terms.items():
            _accumulate(acc, key, c)
        return Expr._build(acc, rad)

    __radd__ = __add__

    def __neg__(self):
        return Expr({k: -c for k, c in self.terms.items()}, self.radicand)

    def __sub__(self, other):
        return self + (-as_expr(other))

    def __rsub__(self, other):
        return as_expr(other) + (-self)

    def __mul__(self, other):
        other = as_expr(other)
        if not self.terms or not other.terms:
            return ZERO
        rad = common_kernel(self, other)
        acc: Dict[TermKey, Fraction] = {}
        for (m1, k1), c1 in self.terms.items():
            for (m2, k2), c2 in other.terms.items():
                _accumulate(acc, (mono_mul(m1, m2), k1 + k2), c1 * c2)
        return Expr._build(acc, rad)

    __rmul__ = __mul__

    def scale(self, c) -> "Expr":
        c = Fraction(c)
        if not c:
            return ZERO
        return Expr({k: v * c for k, v in self.terms.items()}, self.radicand)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise ExprError("only integer powers")
        if n < 0:
            return (self ** (-n))._invert_single_term()
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def _invert_single_term(self) -> "Expr":
        if len(self.terms) != 1:
            raise ExprError("can only invert a single-term expression")
        ((m, k), c), = self.terms.items()
        if any(not allows_negative_power(s) for s in m.symbols()):
            raise ExprError("inverse would need a negative symbol power")
        inv_m = monomial(tuple((s, -e) for s, e in m.powers))
        return Expr._build({(inv_m, -k): 1 / c}, self.radicand)

    # -- calculus ----------------------------------------------------------------

    def diff(self, s: Sym) -> "Expr":
        from .symbols import K_OPAQUE

        if s.kind == K_OPAQUE:
            raise ExprError("cannot differentiate with respect to an opaque symbol")
        return self.diff_atom(s)

    def diff_atom(self, s: Sym) -> "Expr":
        """Partial derivative treating every symbol as an independent atom."""
        acc: Dict[TermKey, Fraction] = {}
        rad_diff = None
        if self.radicand is not None:
            rad_diff = self.radicand.diff(s)

        for (m, k), c in self.terms.items():
            p = m.powers
            for i, (sym, e) in enumerate(p):
                if sym is s or sym._key == s._key:
                    # lower the exponent in place; the order stays sorted
                    lowered = ((sym, e - 1),) if e != 1 else ()
                    _accumulate(acc, (Monomial(p[:i] + lowered + p[i + 1:]), k), c * e)
                    break
            if k != 0 and rad_diff is not None and not rad_diff.is_zero():
                half_k = Fraction(k, 2)
                for (mr, kr), cr in rad_diff.terms.items():
                    assert kr == 0
                    _accumulate(acc, (mono_mul(m, mr), k - 2), c * cr * half_k)
        return Expr._build(acc, self.radicand)

    # -- substitution --------------------------------------------------------------

    def substitute(self, bindings: Dict[Sym, "Expr"]) -> "Expr":
        if not bindings:
            return self
        bindings = {s: as_expr(v) for s, v in bindings.items()}
        new_rad = None
        scale_by_stratum: Dict[int, "Expr"] = {}
        if self.radicand is not None and self.has_radical():
            rad_sub = self.radicand.substitute(bindings)
            if rad_sub.has_radical():
                raise ExprError("substitution puts a radical inside the kernel")
            if rad_sub.is_zero():
                raise ExprError("substitution sends the radical kernel to zero")
            sq, new_rad = _extract_square_content(rad_sub)
            for k in {k for (_, k) in self.terms if k}:
                scale_by_stratum[k] = constant(sq ** k)

        total = ZERO
        for (m, k), c in self.terms.items():
            piece = constant(c)
            for s, e in m.powers:
                if s in bindings:
                    piece = piece * (bindings[s] ** e)
                else:
                    piece = piece * Expr._build({(monomial(((s, e),)), 0): QONE}, None)
            if k != 0:
                piece = piece * scale_by_stratum[k]
                piece = piece * Expr._build({(MONE, k): QONE}, new_rad)
            total = total + piece
        return total

    # -- evaluation ------------------------------------------------------------------

    def eval_at(self, point: Dict[Sym, Fraction], floating: bool = False):
        missing = [s for s in self.free_symbols() if s not in point]
        if missing:
            raise ExprError(
                "unbound symbols: " + ", ".join(s.pretty() for s in sorted(missing, key=lambda s: s.sort_key()))
            )
        rad_val = None
        if self.has_radical():
            rad_val = self.radicand.eval_at(point, floating=floating)
            if floating:
                rad_val = float(rad_val)
                if rad_val < 0:
                    raise ExprError("negative radicand")
                sqrt_val = math.sqrt(rad_val)
            else:
                rad_val = Fraction(rad_val)
                if rad_val < 0:
                    raise ExprError("negative radicand in exact evaluation")
                sqrt_val = _exact_sqrt(rad_val)
                if sqrt_val is None:
                    raise ExprError(
                        "radicand is not a perfect rational square; "
                        "use floating evaluation"
                    )
        total = 0.0 if floating else QZERO
        for (m, k), c in self.terms.items():
            v = float(c) if floating else c
            for s, e in m.powers:
                base = float(point[s]) if floating else Fraction(point[s])
                v *= base ** e
            if k != 0:
                if sqrt_val == 0 and k < 0:
                    raise ExprError("radical kernel vanishes at the point")
                v *= sqrt_val ** k
            total += v
        return total

    # -- structure helpers --------------------------------------------------------------

    def collect(self, selector: Callable[[Sym], bool]) -> Dict[Monomial, "Expr"]:
        """Group terms by the sub-monomial of symbols chosen by `selector`.

        The radical stratum index stays with the coefficient expressions, so
        coefficients are full Exprs (sharing this expression's kernel).
        """
        groups: Dict[Monomial, Dict[TermKey, Fraction]] = {}
        for (m, k), c in self.terms.items():
            sel = [(s, e) for s, e in m.powers if selector(s)]
            rest = [(s, e) for s, e in m.powers if not selector(s)]
            key = Monomial(tuple(sel))
            groups.setdefault(key, {})[(Monomial(tuple(rest)), k)] = c
        return {
            key: Expr._build(terms, self.radicand) for key, terms in groups.items()
        }

    def coefficient(self, key: Monomial, selector: Callable[[Sym], bool]) -> "Expr":
        return self.collect(selector).get(key, ZERO)

    def content(self) -> Tuple[Fraction, Monomial]:
        """Rational and monomial content over all non-opaque, non-constant symbols."""
        from .symbols import K_CONST, K_OPAQUE

        if not self.terms:
            return QONE, MONE
        num = 0
        den = 1
        for c in self.terms.values():
            num = math.gcd(num, c.numerator)
            den = math.lcm(den, c.denominator)
        rat = Fraction(num, den)
        shared: Optional[Dict[Sym, int]] = None
        for (m, _k) in self.terms:
            cur = {
                s: e
                for s, e in m.powers
                if s.kind not in (K_CONST, K_OPAQUE) and e > 0
            }
            if shared is None:
                shared = cur
            else:
                shared = {
                    s: min(e, cur[s]) for s, e in shared.items() if s in cur
                }
            if not shared:
                break
        mono = monomial(tuple((shared or {}).items()))
        return rat, mono

    def primitive(self) -> "Expr":
        """Divide out content and normalize the sign of the leading coefficient."""
        if not self.terms:
            return self
        rat, mono = self.content()
        lead = max(self.terms, key=lambda key: (_mono_sort_key(key[0]), key[1]))
        sign = 1 if self.terms[lead] > 0 else -1
        scale = Fraction(sign) / rat
        acc = {
            (mono_div(m, mono), k): c * scale for (m, k), c in self.terms.items()
        }
        return Expr(acc, self.radicand if any(k for (_, k) in acc) else None)

    def max_jet_order(self) -> int:
        from .symbols import K_JET

        best = 0
        for s in self.free_symbols():
            if s.kind == K_JET:
                best = max(best, s.jet_order)
        return best


# ---------------------------------------------------------------------------
# constructors & helpers
# ---------------------------------------------------------------------------

ZERO = Expr({}, None)
ONE = Expr({(MONE, 0): QONE}, None)


def constant(c) -> Expr:
    c = Fraction(c)
    if not c:
        return ZERO
    return Expr({(MONE, 0): c}, None)


def symbol(s: Sym) -> Expr:
    return Expr({(monomial(((s, 1),)), 0): QONE}, None)


def common_kernel(*exprs: Expr) -> Optional[Expr]:
    """The one radical kernel of `exprs` (None when none has a radical term)."""
    kernel = None
    for e in exprs:
        if not e.has_radical():
            continue
        if kernel is None:
            kernel = e.radicand
        elif e.radicand != kernel:
            from .printer import pretty

            raise KernelConflictError(
                f"distinct radical kernels: sqrt({pretty(kernel)}) vs sqrt({pretty(e.radicand)})"
            )
    return kernel


def as_expr(v) -> Expr:
    if isinstance(v, Expr):
        return v
    if isinstance(v, Sym):
        return symbol(v)
    if isinstance(v, (int, Fraction)):
        return constant(v)
    raise ExprError(f"cannot coerce {v!r} to Expr")


def _extract_square_content(p: Expr) -> Tuple[Fraction, Expr]:
    """Write p = s^2 * p_hat with s rational; p_hat is the canonical kernel."""
    rat, _ = p.content()
    if rat == 0:
        return QONE, p
    sn = _int_square_part(abs(rat.numerator)) if rat.numerator else 1
    sd = _int_square_part(rat.denominator)
    s = Fraction(sn, sd)
    if s == 1:
        return QONE, p
    return s, p.scale(1 / (s * s))


def _exact_sqrt(q: Fraction) -> Optional[Fraction]:
    if q < 0:
        return None
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def sqrt(p: Expr) -> Expr:
    """sqrt of a pure polynomial expression, canonicalizing square content."""
    p = as_expr(p)
    if p.has_radical():
        raise ExprError("nested radicals are not supported")
    if p.is_zero():
        return ZERO
    rat = None
    try:
        rat = p.as_fraction()
    except ExprError:
        pass
    if rat is not None:
        root = _exact_sqrt(rat)
        if root is not None:
            return constant(root)
    s, kernel = _extract_square_content(p)
    return Expr._build({(MONE, 1): s}, kernel)


def expr_div_exact(num: Expr, den: Expr) -> Optional[Expr]:
    """Exact polynomial quotient num/den for radical-free expressions."""
    if num.has_radical() or den.has_radical():
        raise ExprError("exact division is polynomial-only")
    if den.is_zero():
        raise ZeroDivisionError("division by zero expression")
    q = _pdiv_exact(num._poly(), den._poly())
    if q is None:
        return None
    return Expr({(m, 0): c for m, c in q.items()}, None)
