"""Recursive-descent parser for the ASCII expression grammar.

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := atom ['^' ['-'] INT]
    atom   := INT | 'x' | 't' | 'u' | 'u[i,j]' | 'a' | 'b' | 'cN'
            | '(' expr ')' | 'sqrt' '(' expr ')'

Division is restricted to rational constants and sqrt factors, and an
exponent to |n| <= 2^31 - 1 (`expr.MAX_EXPONENT`); everything else is a
syntax error carrying line and column.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, NamedTuple

from . import expr as ex
from . import symbols as sy


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class Token(NamedTuple):
    kind: str  # INT NAME OP END
    text: str
    line: int
    col: int


_OPS = set("+-*/^()[],")


def _tokenize(text: str) -> List[Token]:
    out = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            out.append(Token("INT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(Token("NAME", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in _OPS:
            out.append(Token("OP", ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    out.append(Token("END", "", line, col))
    return out


class _Parser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.next()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text or 'end of input'!r}",
                             tok.line, tok.col)
        return tok

    # grammar rules ---------------------------------------------------------

    def expr(self) -> ex.Expr:
        sign = 1
        if self.peek().text in ("+", "-"):
            if self.next().text == "-":
                sign = -1
        total = self.term().scale(sign)
        while self.peek().text in ("+", "-"):
            op = self.next().text
            rhs = self.term()
            total = total + rhs if op == "+" else total - rhs
        return total

    def term(self) -> ex.Expr:
        total = self.factor()
        while self.peek().text in ("*", "/"):
            tok = self.next()
            rhs = self.factor()
            if tok.text == "*":
                total = total * rhs
            else:
                try:
                    total = total * rhs ** -1
                except ex.ExprError:
                    raise ParseError(
                        "division is only allowed by rational constants or "
                        "sqrt factors",
                        tok.line, tok.col,
                    ) from None
        return total

    def factor(self) -> ex.Expr:
        base = self.atom()
        if self.peek().text == "^":
            tok = self.next()
            sign = 1
            if self.peek().text == "-":
                self.next()
                sign = -1
            etok = self.next()
            if etok.kind != "INT":
                raise ParseError("expected an integer exponent", etok.line, etok.col)
            n = sign * int(etok.text)
            if abs(n) > ex.MAX_EXPONENT:
                raise ParseError(
                    f"exponent {n} is out of range: |n| must be at most {ex.MAX_EXPONENT}",
                    etok.line, etok.col,
                )
            try:
                return base ** n
            except ex.ExprError:
                if n >= 0:  # an exponent that overflows in the power itself
                    raise
                raise ParseError(
                    "negative powers are only allowed on rational constants "
                    "or sqrt factors",
                    tok.line, tok.col,
                ) from None
        return base

    def atom(self) -> ex.Expr:
        tok = self.next()
        if tok.kind == "INT":
            return ex.constant(Fraction(int(tok.text)))
        if tok.text == "(":
            inner = self.expr()
            self.expect(")")
            return inner
        if tok.text == "-":
            return -self.atom()
        if tok.kind == "NAME":
            return self._name_atom(tok)
        raise ParseError(f"unexpected token {tok.text or 'end of input'!r}",
                         tok.line, tok.col)

    def _name_atom(self, tok: Token) -> ex.Expr:
        name = tok.text
        if name == "sqrt":
            self.expect("(")
            inner = self.expr()
            close = self.expect(")")
            try:
                return ex.sqrt(inner)
            except ex.ExprError as err:
                raise ParseError(str(err), close.line, close.col) from None
        if name == "x":
            return ex.symbol(sy.X)
        if name == "t":
            return ex.symbol(sy.T)
        if name == "a":
            return ex.symbol(sy.ALPHA)
        if name == "b":
            return ex.symbol(sy.BETA)
        if name == "u":
            if self.peek().text == "[":
                self.next()
                i = self._int_token()
                self.expect(",")
                j = self._int_token()
                self.expect("]")
                return ex.symbol(sy.jet(i, j))
            return ex.symbol(sy.U)
        if name.startswith("c") and name[1:].isdigit() and not name[1:].startswith("0"):
            return ex.symbol(sy.const(name))
        raise ParseError(f"unknown symbol {name!r}", tok.line, tok.col)

    def _int_token(self) -> int:
        tok = self.next()
        if tok.kind != "INT":
            raise ParseError("expected a nonnegative integer", tok.line, tok.col)
        return int(tok.text)


def parse(text: str) -> ex.Expr:
    parser = _Parser(_tokenize(text))
    result = parser.expr()
    tail = parser.peek()
    if tail.kind != "END":
        raise ParseError(f"trailing input {tail.text!r}", tail.line, tail.col)
    return result
