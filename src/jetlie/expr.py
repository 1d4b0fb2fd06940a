"""Exact symbolic expressions with a unique normal form.

An `Expr` is a sparse polynomial over Q in `Sym` coordinates, optionally
carrying a single radical kernel R: terms are coeff * monomial * R^(k/2)
with k an odd integer (even radical powers fold into the polynomial part).
Two expressions are mathematically equal iff their normal forms compare
equal, which makes zero-testing on this class decidable: the polynomial
part and the radical stratum must each vanish.

Invariant: the radical part w of a normal form sits at one odd stratum, and
a non-constant kernel R does not divide it.  For R without `K_EXP` symbols
(a UFD, Laurent in exp(eps)), `_build` skips the pulls that must fail: (1) a
sum with one radical part a, or with parts a, b at strata k < l, has
w = a + b R^((l-k)/2), which is a modulo R; (2) for a radical times a
radical-free c*m, gcd(R, m) = 1 unless a symbol of m divides every term of
R, so R | w*m would need R | w.  A one-stratum sum keeps the pull.

A `Monomial` is an `int` that packs an exponent vector (Bachmann and
Schoenemann, ISSAC 1998; Monagan and Pearce, CASC 2007).  On first sight a
symbol gets a 32-bit slot, numbered in order of registration; a `K_EXP`
symbol gets two adjacent slots, for the positive and the negative part of its
exponent, so every slot holds an exponent in [0, 2^31 - 1] and its top bit,
the guard, stays clear.  A product is then one addition: a guard bit that
comes up is an overflow, which raises `ExprError` instead of wrapping.  A
quotient is one subtraction (m | G) - d, where a guard bit that goes down is a
negative exponent.  Hashing and equality are those of `int`.  Only products
that touch a `K_EXP` slot take a second look, to cancel its two parts.  Slot
numbers depend on the order in which a process meets its symbols, so nothing
may order or print by them: `grlex_key` sorts by the symbols themselves, and
`Monomial.powers` decodes the sorted ((symbol, exponent), ...) view.

A coefficient is an `int` when it is integral and otherwise a
`fractions.Fraction` with denominator > 1; `_q` maps a result into that
domain, and every division goes through `Fraction`.  `as_fraction` and
`eval_at` return `Fraction`s, and no value here is ever a `float`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from .symbols import K_CONST, K_EXP, K_JET, Sym, allows_negative_power

Coeff = Union[int, Fraction]
QZERO = Fraction(0)
QONE = 1


def _q(c: Coeff) -> Coeff:
    """`c` in the coefficient domain: an int when integral, else the Fraction."""
    return c.numerator if c.denominator == 1 else c


class ExprError(ValueError):
    pass


class KernelConflictError(ExprError):
    """Two distinct radical kernels met in one expression."""


# ---------------------------------------------------------------------------
# monomials: packed exponent vectors
# ---------------------------------------------------------------------------

_W = 32  # bits per slot
MAX_EXPONENT = (1 << (_W - 1)) - 1  # the top bit of a slot is its overflow guard
_M = (1 << _W) - 1

_OFFSET: Dict[Sym, int] = {}  # symbol -> bit offset of its slot (K_EXP: the positive one)
_SLOT_SYM: List[Tuple[Sym, int]] = []  # slot index -> (symbol, sign of the exponents it holds)
_GUARD = 0  # the guard bit of every slot
_EXP_POS = 0  # every bit of the positive K_EXP slots
_EXP = 0  # every bit of both K_EXP slots
_CHECK = 0  # _GUARD | _EXP: a product needs a second look only when it hits this
KIND_MASKS = [0] * (K_EXP + 1)  # every bit of the slots of each symbol kind


def _offset(s: Sym) -> int:
    """The bit offset of s's slot, giving s one on first sight (K_EXP: two)."""
    global _GUARD, _EXP_POS, _EXP, _CHECK
    off = _OFFSET.get(s)
    if off is None:
        off = _OFFSET[s] = _W * len(_SLOT_SYM)
        signs = (1, -1) if s.kind == K_EXP else (1,)
        for i, sign in enumerate(signs):
            _SLOT_SYM.append((s, sign))
            _GUARD |= 1 << (off + _W * i + _W - 1)
        full = ((1 << (_W * len(signs))) - 1) << off
        KIND_MASKS[s.kind] |= full
        if s.kind == K_EXP:
            _EXP_POS |= _M << off
            _EXP |= full
        _CHECK = _GUARD | _EXP
    return off


def _slots(v: int):
    """(offset, raw exponent) of every nonzero slot of v, lowest first."""
    while v:
        off = ((v & -v).bit_length() - 1) & -_W
        e = (v >> off) & _M
        v ^= e << off
        yield off, e


def _symbol_set(v: int) -> set:
    """The symbols whose slots hold a set bit of v."""
    out = set()
    while v:
        off = ((v & -v).bit_length() - 1) & -_W
        out.add(_SLOT_SYM[off // _W][0])
        v &= ~(_M << off)
    return out


def _named(v: int) -> List[Sym]:
    """`_symbol_set(v)` in symbol order."""
    return sorted(_symbol_set(v))


class Monomial(int):
    """A product of symbol powers packed into one int, as the module docstring
    describes: a K_EXP symbol holds at most one nonzero slot of its two, and
    no guard bit is set.  `powers` is the sorted ((symbol, exponent), ...) view."""

    __slots__ = ()

    @property
    def powers(self) -> Tuple[Tuple[Sym, int], ...]:
        out = []
        for off, e in _slots(self):
            sym, sign = _SLOT_SYM[off // _W]
            out.append((sym, sign * e))
        return tuple(sorted(out))

    def __repr__(self):
        if not self:
            return "1"
        return "*".join(
            s.pretty() + (f"^{e}" if e != 1 else "") for s, e in self.powers
        )

    def exponent(self, s: Sym) -> int:
        off = _OFFSET.get(s)
        if off is None:
            return 0
        e = (self >> off) & _M
        if s.kind == K_EXP:
            e -= (self >> (off + _W)) & _M
        return e

    def symbols(self) -> List[Sym]:
        return _named(self)

    def is_unit(self) -> bool:
        return not self


MONE = Monomial(0)


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
    v = 0
    for s, e in acc.items():
        if abs(e) > MAX_EXPONENT:
            raise ExprError(
                f"exponent of {s.pretty()} out of range: |n| must be at most {MAX_EXPONENT}"
            )
        off = _offset(s)
        v |= e << off if e > 0 else -e << (off + _W)
    return Monomial(v)


def _exp_normal(v: int) -> int:
    """v with the two slots of each K_EXP symbol cancelled down to one."""
    for off, p in _slots(v & _EXP_POS):
        n = (v >> (off + _W)) & _M
        if n:
            c = min(p, n)
            v -= (c << off) | (c << (off + _W))
    return v


def mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    if not m1:
        return m2
    if not m2:
        return m1
    r = m1 + m2
    if r & _CHECK:
        if r & _GUARD:
            s = _named(r & _GUARD)[0]
            raise ExprError(
                f"an intermediate exponent of {s.pretty()} overflowed: "
                f"|n| must be at most {MAX_EXPONENT}"
            )
        r = _exp_normal(r)
    return Monomial(r)


def _exp_inverse(m: int) -> Monomial:
    """1/m for m in K_EXP symbols only: each positive slot swaps with its negative one."""
    return Monomial(((m & _EXP_POS) << _W) | ((m >> _W) & _EXP_POS))


def mono_divides(d: Monomial, m: Monomial) -> bool:
    if (d | m) & _EXP:
        return all(m.exponent(s) >= e for s, e in d.powers)
    return ((m | _GUARD) - d) & _GUARD == _GUARD


def mono_div(m: Monomial, d: Monomial) -> Monomial:
    """m / d; a guard bit that the subtraction clears marks a negative exponent."""
    d_exp = d & _EXP
    r = (m | _GUARD) - (d ^ d_exp)
    bad = _GUARD & ~r
    if bad:
        # name the symbol `monomial()` would: those of m first, then those of d
        syms = _named(bad)
        first = next((s for s in syms if m.exponent(s)), syms[0])
        raise ExprError(f"negative exponent on {first.pretty()}")
    r ^= _GUARD
    if d_exp:
        return mono_mul(Monomial(r), _exp_inverse(d_exp))
    return Monomial(r)


def mono_gcd(m1: Monomial, m2: Monomial) -> Monomial:
    """The exponentwise minimum of two monomials free of K_EXP symbols."""
    if (m1 | m2) & _EXP:
        raise ExprError("mono_gcd takes monomials without exp symbols")
    ge = (((m1 | _GUARD) - m2) & _GUARD) >> (_W - 1)  # bit 0 of each slot where m1 >= m2
    mask = (ge << _W) - ge  # those slots, every bit
    return Monomial((m2 & mask) | (m1 & ~mask))


def grlex_key(monomials: Iterable[Monomial]) -> Callable[[Monomial], int]:
    """A sort key for graded lexicographic order on monomials in the symbols of
    `monomials`: the degree, then the exponent of each symbol in symbol order,
    the first symbol highest.  Each key repacks the slots into one int, the
    degree on top and each exponent below it in a `_W`-bit field; a field may
    be negative, which keeps the order since |exponent| < 2^(_W - 1)."""
    used = 0
    for m in monomials:
        used |= m
    fields = [(_OFFSET[s], s.kind == K_EXP) for s in _named(used)]
    width = _W * len(fields)

    def key(m: Monomial) -> int:
        k = deg = 0
        for off, signed in fields:
            e = (m >> off) & _M
            if signed:
                e -= (m >> (off + _W)) & _M
            deg += e
            k = (k << _W) + e
        return (deg << width) + k

    return key


# ---------------------------------------------------------------------------
# raw polynomial helpers (dict Monomial -> Coeff, no radical)
# ---------------------------------------------------------------------------

Poly = Dict[Monomial, Coeff]


def _accumulate(acc: dict, key, c: Coeff):
    """acc[key] += c for a nonzero c, dropping the key when the sum vanishes.

    `c` may be a product with denominator 1; what is stored is in the domain.
    """
    v = acc.get(key)
    if v is not None:
        c += v
        if not c:
            del acc[key]
            return
    acc[key] = c if type(c) is int else _q(c)


def _padd_into(acc: Poly, p: Poly):
    for m, c in p.items():
        _accumulate(acc, m, c)


def _pmul(p1: Poly, p2: Poly) -> Poly:
    acc: Poly = {}
    for m1, c1 in p1.items():
        for m2, c2 in p2.items():
            _accumulate(acc, mono_mul(m1, m2), c1 * c2)
    return acc


def _add_product(total: dict, left: dict, right: dict):
    """total += left * right in place for radical-free term dicts, keys in the order
    of `Expr(total) + Expr(left) * Expr(right)`: a product that may cancel a key and
    add it back is summed apart first, unless a one-term factor maps it one-to-one."""
    acc = total if len(left) == 1 or len(right) == 1 else {}
    for (m1, _k1), c1 in left.items():
        for (m2, _k2), c2 in right.items():
            _accumulate(acc, (mono_mul(m1, m2), 0), c1 * c2)
    if acc is not total:
        for key, c in acc.items():
            _accumulate(total, key, c)


def _pdiv_exact(num: Poly, den: Poly) -> Optional[Poly]:
    """num / den when exact, else None.  den must be nonzero."""
    if not num:
        return {}
    rem = dict(num)
    # every remainder monomial lies in the symbols of num and den
    key = grlex_key([*num, *den])
    lead = max(den, key=key)
    lead_c = den[lead]
    quot: Poly = {}
    while rem:
        rl = max(rem, key=key)
        if not mono_divides(lead, rl):
            return None
        qm = mono_div(rl, lead)
        qc = _q(Fraction(rem[rl], lead_c))
        _accumulate(quot, qm, qc)
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

    def __init__(self, terms: Dict[TermKey, Coeff], radicand: "Optional[Expr]"):
        self.terms = terms
        self.radicand = radicand
        self._hash = None

    # -- canonical construction ----------------------------------------------

    @staticmethod
    def _build(terms: Dict[TermKey, Coeff], radicand: "Optional[Expr]", pull: bool = True) -> "Expr":
        """The normal form of zero-free `terms`; the result owns the dict.

        Factors R come out of the radical part w while R divides it; `pull=False`
        skips that where it must fail: (1) w = a + b R^j is a modulo R; (2) w = a*m
        with gcd(R, m) = 1, where R | a*m would need R | a.
        """
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
            # pull kernel factors out of w unless R is a constant (the quotient never
            # terminates) or a rule shows that none comes out; the rules need R free of exp
            pull = pull or any(m & _EXP for m in rad_poly)
            if pull and not (len(rad_poly) == 1 and MONE in rad_poly):
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
        used = 0
        for (m, _k) in self.terms:
            used |= m
        out = _symbol_set(used)
        if self.radicand is not None and any(k for (_, k) in self.terms):
            out.update(self.radicand.free_symbols())
        return out

    def has_radical(self) -> bool:
        # `_build` attaches a radicand only to expressions with a radical term
        return self.radicand is not None and any(k for (_, k) in self.terms)

    def as_fraction(self) -> Fraction:
        if not self.terms:
            return QZERO
        if len(self.terms) == 1:
            ((m, k), c), = self.terms.items()
            if m.is_unit() and k == 0:
                return Fraction(c)
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
        # rule 1: only radical parts at one stratum can add up to a multiple of R
        return Expr._build(acc, rad, rad is None or _stratum(self) == _stratum(other))

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
        acc: Dict[TermKey, Coeff] = {}
        for (m1, k1), c1 in self.terms.items():
            for (m2, k2), c2 in other.terms.items():
                _accumulate(acc, (mono_mul(m1, m2), k1 + k2), c1 * c2)
        plain = self if other.radicand is not None else other
        pull = rad is None or plain.radicand is not None or len(plain.terms) != 1
        if not pull:  # rule 2: gcd(R, m) = 1 unless a symbol of m divides every term of R
            (m, _k), = plain.terms
            # v + low sets the guard bit of each nonzero slot of v
            low = _GUARD - (_GUARD >> (_W - 1))
            shared = (m + low) & _GUARD
            for mr, _k in rad.terms:
                shared &= mr + low
            pull = bool(shared)
        return Expr._build(acc, rad, pull)

    __rmul__ = __mul__

    def scale(self, c) -> "Expr":
        c = _q(Fraction(c))
        if not c:
            return ZERO
        return Expr({k: _q(v * c) for k, v in self.terms.items()}, self.radicand)

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
        if m & ~_EXP:
            raise ExprError("inverse would need a negative symbol power")
        inv_m = _exp_inverse(m)
        return Expr._build({(inv_m, -k): _q(Fraction(1, c))}, self.radicand)

    # -- calculus ----------------------------------------------------------------

    def diff(self, s: Sym) -> "Expr":
        """Partial derivative treating every symbol as an independent atom."""
        acc: Dict[TermKey, Coeff] = {}
        rad_diff = None
        if self.radicand is not None:
            rad_diff = self.radicand.diff(s)

        off = _OFFSET.get(s)  # None: no term holds s
        signed = s.kind == K_EXP
        one = 0 if off is None else 1 << off
        for (m, k), c in self.terms.items():
            if one:
                e = m.exponent(s) if signed else (m >> off) & _M
                if e:  # lower the exponent: one subtraction, a division for exp(eps)
                    lowered = mono_div(m, Monomial(one)) if signed else Monomial(m - one)
                    _accumulate(acc, (lowered, k), c * e)
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
                scale_by_stratum[k] = constant(Fraction(sq) ** k)

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

    def eval_at(self, point: Dict[Sym, Fraction]) -> Fraction:
        missing = [s for s in self.free_symbols() if s not in point]
        if missing:
            raise ExprError(
                "unbound symbols: " + ", ".join(s.pretty() for s in sorted(missing))
            )
        sqrt_val = None
        if self.has_radical():
            rad_val = Fraction(self.radicand.eval_at(point))
            if rad_val < 0:
                raise ExprError("negative radicand")
            sqrt_val = _exact_sqrt(rad_val)
            if sqrt_val is None:
                raise ExprError("radicand is not a perfect rational square")
        total = QZERO
        for (m, k), c in self.terms.items():
            v = c
            for s, e in m.powers:
                v *= Fraction(point[s]) ** e
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
        groups: Dict[Monomial, Dict[TermKey, Coeff]] = {}
        for (m, k), c in self.terms.items():
            sel = sum(e << off for off, e in _slots(m) if selector(_SLOT_SYM[off // _W][0]))
            groups.setdefault(Monomial(sel), {})[(Monomial(m - sel), k)] = c
        return {
            key: Expr._build(terms, self.radicand) for key, terms in groups.items()
        }

    def coefficient(self, key: Monomial, selector: Callable[[Sym], bool]) -> "Expr":
        return self.collect(selector).get(key, ZERO)

    def content(self) -> Tuple[Coeff, Monomial]:
        """Rational and monomial content over all symbols but unknown constants."""
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
                if s.kind != K_CONST and e > 0
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
        grlex = grlex_key(m for m, _k in self.terms)
        lead = max(self.terms, key=lambda key: (grlex(key[0]), key[1]))
        # each c / (sign * rat) is the integer sign * (n/num) * (den/d)
        num = rat.numerator if self.terms[lead] > 0 else -rat.numerator
        den = rat.denominator
        acc = {
            (mono_div(m, mono), k): c.numerator // num * (den // c.denominator)
            for (m, k), c in self.terms.items()
        }
        return Expr(acc, self.radicand if any(k for (_, k) in acc) else None)

    def max_jet_order(self) -> int:
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
    c = _q(Fraction(c))
    if not c:
        return ZERO
    return Expr({(MONE, 0): c}, None)


def sum_of_products(pairs: "list[Tuple[Expr, Expr]]") -> Expr:
    """ZERO + a1 * b1 + a2 * b2 + ..., in value and in dict order; radical-free
    pairs are summed in one dict, as `_add_product` keeps that order."""
    if any(a.radicand is not None or b.radicand is not None for a, b in pairs):
        return sum((a * b for a, b in pairs), ZERO)
    terms: Dict[TermKey, Coeff] = {}
    for a, b in pairs:
        _add_product(terms, a.terms, b.terms)
    return Expr(terms, None)


def symbol(s: Sym) -> Expr:
    return Expr({(monomial(((s, 1),)), 0): QONE}, None)


def _stratum(e: Expr) -> int:
    """The stratum of e's radical part, 0 when it has none."""
    return 0 if e.radicand is None else next((k for _, k in e.terms if k), 0)


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


def _extract_square_content(p: Expr) -> Tuple[Coeff, Expr]:
    """Write p = s^2 * p_hat with s rational; p_hat is the canonical kernel."""
    rat, _ = p.content()
    if rat == 0:
        return QONE, p
    sn = _int_square_part(abs(rat.numerator)) if rat.numerator else 1
    sd = _int_square_part(rat.denominator)
    s = Fraction(sn, sd)
    if s == 1:
        return QONE, p
    return _q(s), p.scale(1 / (s * s))


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
