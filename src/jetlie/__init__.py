"""Exact Lie symmetry analysis for the generalized short pulse equation."""

from .expr import Expr, ExprError, KernelConflictError, constant, sqrt, symbol
from .parser import ParseError, parse
from .printer import grammar, pretty

__all__ = [
    "Expr",
    "ExprError",
    "KernelConflictError",
    "ParseError",
    "constant",
    "grammar",
    "parse",
    "pretty",
    "sqrt",
    "symbol",
]

__version__ = "0.1.0"
