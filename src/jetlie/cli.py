"""Command-line front door.

Every command emits a report with the same shape: the command name, an echo
of the configuration, the mathematical result, and a list of
derived-vs-claimed rows wherever a reference claim is touched.  Text output
is layout-stable for golden tests; `--format json` prints the same report as
sorted JSON.

A command derives its result and passes each derived value, under the topic
of the claims it meets, to `_claim_rows`; every row comes from a `Claim` in
`claims.catalogue()`, which judges the value against the claimed fixture.
No row and no verdict is written here.

Exit codes for `verify`: 0 residual is exactly zero, 1 nonzero, 2 input
error.  Other commands exit 0 on success and 2 on any input or domain
error.  An error is one `error: <message>` line on stderr, or under
`--format json` the report {"command": <command>, "error": {"type":
<exception class>, "message": <message>}} on stdout.  Usage errors are
argparse's own and always text.  Any command exits 141 (128 + SIGPIPE)
when stdout closes before the report is written, so that a broken pipe
never reads as a verdict.

The argument parser and the claim table are built once per process, on
first use, and shared by every later call: they must never be mutated.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import claims
from . import symbols as sy
from .algebra import (
    AlgebraError,
    SubalgebraError,
    ad_matrix,
    adjoint_exp,
    normalize_1d,
    normalize_2d,
)
from .engine import (
    BOUNDED_SCANS,
    BUILTIN_BASES,
    EngineError,
    ansatz_solve,
    builtin_basis,
    derive_point_algebra,
    new_dimension_count,
    residual,
    spot_check,
)
from .expr import Expr, ExprError, ZERO, constant, symbol
from .fields import Characteristic, PointVectorField, point_field_of, structure_table
from .groups import (
    FlowError,
    NonSymmetryError,
    diagonal_exponents,
    equation_invariance,
    flow,
    reduce_representative,
)
from .jets import JetOrderError, Manifold, expand_equation
from .parser import ParseError, parse
from .printer import PrintError, grammar, join_signed, pretty


class CliError(ValueError):
    pass


class RunConfig(NamedTuple):
    alpha: str = "sym"
    beta: str = "sym"
    max_order: int = 12
    interp: str = "third"
    fmt: str = "text"
    seed: int = 0

    def _param(self, text: str, name: str) -> Optional[Fraction]:
        if text == "sym":
            return None
        try:
            value = Fraction(text)
        except (ValueError, ZeroDivisionError):
            raise CliError(f"--{name} must be 'sym' or a rational number")
        if value == 0:
            raise CliError(f"--{name} must be nonzero (the equation degenerates)")
        return value

    def parameters(self) -> Tuple[Optional[Fraction], Optional[Fraction]]:
        return self._param(self.alpha, "alpha"), self._param(self.beta, "beta")

    def manifold(self) -> Manifold:
        a, b = self.parameters()
        return Manifold(expand_equation(a, b), max_order=self.max_order)

    def readings(self) -> List[str]:
        return ["third", "cubed"] if self.interp == "both" else [self.interp]

    def echo(self) -> Dict:
        """The settings a report echoes, in the order its text form prints them."""
        return {k: getattr(self, k) for k in ("alpha", "beta", "max_order", "interp", "seed")}

    def rng(self) -> random.Random:
        return random.Random(self.seed)


def apply_interp(e: Expr, interp: str) -> Expr:
    """Rewrite the ambiguous third-derivative symbols under a reading."""
    if interp == "third":
        return e
    ux = symbol(sy.jet(1, 0))
    ut = symbol(sy.jet(0, 1))
    return e.substitute({sy.jet(3, 0): ux ** 3, sy.jet(0, 3): ut ** 3})


def _substitute_params(e: Expr, config: RunConfig) -> Expr:
    a, b = config.parameters()
    bindings = {}
    if a is not None:
        bindings[sy.ALPHA] = constant(a)
    if b is not None:
        bindings[sy.BETA] = constant(b)
    return e.substitute(bindings) if bindings else e


def _expr_strings(e: Expr) -> Dict[str, str]:
    out = {"pretty": pretty(e)}
    try:
        out["grammar"] = grammar(e)
    except (ValueError, PrintError):
        pass
    return out


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _report(command: str, config: RunConfig, result: Dict, claim_rows=()) -> Dict:
    return {
        "command": command,
        "config": config.echo(),
        "result": result,
        "claims": list(claim_rows),
    }


def _claim_rows(derived: Dict[str, object]) -> List[Dict]:
    """A row for every claim whose topic `derived` holds a value for, in table order."""
    return [claim.row(derived[claim.topic]) for claim in claims.about(*derived)]


def cmd_verify(args, config: RunConfig) -> Tuple[int, Dict]:
    man = config.manifold()
    parsed = _substitute_params(parse(args.expression), config)
    verdicts = []
    claim_rows = []
    all_zero = True
    for reading in config.readings():
        q = apply_interp(parsed, reading)
        rep = residual(man, q)
        chk = spot_check(rep.value, rep.is_zero, 100, config.rng())
        if not chk.agrees:
            raise CliError("numeric spot-check disagrees with the symbolic verdict")
        all_zero &= rep.is_zero
        verdicts.append(
            {
                "reading": reading,
                "candidate": _expr_strings(q),
                "order": q.max_jet_order(),
                "is_symmetry": rep.is_zero,
                "residual": _expr_strings(rep.value),
                "free_coordinates": [s.pretty() for s in rep.free_coordinates],
                "spot_check": {"points": chk.points, "agrees": chk.agrees},
            }
        )
        # each fixture is built under its reading, so only alpha, beta remain;
        # substituting nonzero values for them only removes symbols, so a
        # fixture that lacks a jet symbol of q cannot become q
        jets = {s for s in q.free_symbols() if s.kind == sy.K_JET}
        for claim in claims.about("verify", f"verify [{reading}]"):
            fixture = claim.fixture()
            if jets <= fixture.free_symbols() and _substitute_params(fixture, config) == q:
                claim_rows.append(claim.row(rep.value))
    return (0 if all_zero else 1), _report("verify", config, {"verdicts": verdicts}, claim_rows)


def _solution_block(result) -> Dict:
    return {
        "dimension": result.dimension,
        "generators": [_expr_strings(q) for q in result.characteristics],
        "assumptions": result.assumptions,
        "dependent_ansatz_directions": result.dependent_directions,
    }


def _split_top_level(spec: str) -> List[str]:
    """Split a basis list at the commas outside brackets and parentheses."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(spec):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(spec[start:i])
            start = i + 1
    return parts + [spec[start:]]


def cmd_solve(args, config: RunConfig) -> Tuple[int, Dict]:
    man = config.manifold()
    spec = args.basis
    claim_rows: List[Dict] = []

    if spec == "point-affine":
        algebra = derive_point_algebra(man)
        result_block = _solution_block(algebra.result)
        result_block["derived_scaling_weight"] = str(algebra.weight)
        claim_rows = _claim_rows(
            {"point dimension": algebra.dimension, "scaling weight": algebra.weight}
        )
    elif spec in BOUNDED_SCANS:
        order, degree = BOUNDED_SCANS[spec]
        basis = builtin_basis(spec)
        result = ansatz_solve(man, basis)
        new_dim = new_dimension_count(result.characteristics, order, result.assumptions)
        result_block = _solution_block(result)
        result_block.update(
            {
                "order": order,
                "degree": degree,
                "basis_size": len(basis),
                "new_dimension": new_dim,
                "label": "ansatz-bounded",
            }
        )
        claim_rows = _claim_rows({spec: new_dim})
    elif spec in ("order-3", "order-3-derived"):
        blocks = []
        for reading in config.readings():
            basis = builtin_basis(spec, reading)
            basis = [_substitute_params(b, config) for b in basis]
            result = ansatz_solve(man, basis)
            new_dim = new_dimension_count(result.characteristics, 3, result.assumptions)
            block = _solution_block(result)
            block["reading"] = reading
            block["new_dimension_at_order_3"] = new_dim
            blocks.append(block)
            topic = f"{spec} [{reading}]"
            if spec == "order-3-derived":
                claim_rows += _claim_rows({topic: new_dim})
                continue
            for claim in claims.about(topic):
                member = _substitute_params(claim.fixture(), config)
                claim_rows.append(claim.row(residual(man, member).value))
        result_block = {"scans": blocks}
    else:
        if config.interp == "both":
            raise CliError(
                "--interp both applies to the order-3 and order-3-derived "
                "scans only; a custom basis takes --interp third or cubed"
            )
        basis = [
            _substitute_params(apply_interp(parse(text), config.interp), config)
            for text in _split_top_level(spec)
        ]
        result = ansatz_solve(man, basis)
        result_block = _solution_block(result)

    return 0, _report("solve", config, {"basis": spec, **result_block}, claim_rows)


def _coeff_string(vec: Sequence[Fraction]) -> str:
    return join_signed(
        (c < 0, name if abs(c) == 1 else f"{abs(c)}*{name}")
        for c, name in zip(vec, ("v1", "v2", "v3"))
        if c
    )


def _derived_table(man: Manifold):
    algebra = derive_point_algebra(man)
    fields = [point_field_of(Characteristic(q)).field() for q in algebra.characteristics]
    return algebra, structure_table(fields)


def cmd_table(args, config: RunConfig) -> Tuple[int, Dict]:
    algebra, table = _derived_table(config.manifold())
    result = {
        "basis": [_expr_strings(q) for q in algebra.characteristics],
        "derived_scaling_weight": str(algebra.weight),
        "table": [[_coeff_string(c) for c in row] for row in table.constants],
    }
    return 0, _report("table", config, result, _claim_rows({"table": table.constants}))


def cmd_adjoint(args, config: RunConfig) -> Tuple[int, Dict]:
    _algebra, table = _derived_table(config.manifold())
    c_syms = [symbol(sy.const(f"c{k}")) for k in (1, 2, 3)]
    maps = []
    images = {}
    for i in range(3):
        image = tuple(adjoint_exp(table, i).apply_symbolic(c_syms))
        images[f"adjoint F{i + 1}"] = image
        maps.append(
            {
                "generator": f"v{i + 1}",
                "ad_matrix": [[str(v) for v in row] for row in ad_matrix(table, i)],
                "coefficient_map": [pretty(e) for e in image],
            }
        )
    return 0, _report("adjoint", config, {"maps": maps}, _claim_rows(images))


def _parse_entries(parts: Sequence[str], text: str) -> Tuple[Fraction, ...]:
    try:
        return tuple(Fraction(p.strip()) for p in parts)
    except (ValueError, ZeroDivisionError):
        raise CliError(f"bad coefficient vector {text!r}")


def _parse_vec(text: str) -> Tuple[Fraction, Fraction, Fraction]:
    parts = text.split(",")
    if len(parts) != 3:
        raise CliError("coefficient vectors need exactly three entries")
    return _parse_entries(parts, text)


def cmd_normalize(args, config: RunConfig) -> Tuple[int, Dict]:
    if args.two and args.coefficients:
        raise CliError("normalize takes three coefficients or --two, not both")
    if args.two:
        pair = [_parse_vec(t.strip()) for t in args.two]
    elif len(args.coefficients) != 3:
        raise CliError("normalize needs three coefficients or --two")
    else:
        vec = _parse_entries(args.coefficients, " ".join(args.coefficients))
    _algebra, table = _derived_table(config.manifold())
    if args.two:
        try:
            r = normalize_2d(table, pair[0], pair[1])
        except SubalgebraError as err:
            result = {
                "mode": "2d",
                "error": str(err),
                "offending_bracket": [str(v) for v in err.bracket],
            }
            return 2, _report("normalize", config, result)
        result = {
            "mode": "2d",
            "representative": list(r.representative),
            "final_pair": [[str(v) for v in vec] for vec in r.pair],
            "witness": [_step_string(s) for s in r.steps],
        }
        derived = {"optimal 2d": tuple(r.representative)}
    else:
        r = normalize_1d(table, vec)
        result = {
            "mode": "1d",
            "input": _coeff_string(vec),
            "representative": _coeff_string(r.representative),
            "family": r.family,
            "parameter": None if r.parameter is None else str(r.parameter),
            "witness": [_step_string(s) for s in r.steps],
            "invariants": r.invariants,
        }
        # normalize_1d names the family after the case it took, so this row cannot differ
        derived = {"optimal 1d": r.family}
    return 0, _report("normalize", config, result, _claim_rows(derived))


def _step_string(step) -> str:
    if step[0] == "adjoint":
        _, i, eps_val = step
        return f"Ad(exp({eps_val} * v{i + 1}))"
    return f"scale by {step[1]}"


_REP_FORMS = {
    "v1": (1, 0, 0),
    "v2": (0, 1, 0),
    "v3": (0, 0, 1),
}


def _parse_representative(text: str):
    """Parse forms like 'v1+2v2', 'v1+a*v2', 'b*v1+v2', 'v3'."""
    import re

    text = text.replace(" ", "")
    if text in _REP_FORMS:
        return _REP_FORMS[text]
    m = re.fullmatch(r"v1([+-])(.*)\*?v2", text)
    coeff_of = None
    if m:
        coeff_of = ("v2", m.group(1), m.group(2).rstrip("*"))
        base = (1, None, 0)
    else:
        m = re.fullmatch(r"(.*?)\*?v1\+v2", text)
        if m:
            coeff_of = ("v1", "+", m.group(1).rstrip("*"))
            base = (None, 1, 0)
    if coeff_of is None:
        raise CliError(
            f"unsupported representative {text!r}; expected v1+a*v2, b*v1+v2 or v3"
        )
    _slot, sign, raw = coeff_of
    if raw in ("a", "b"):
        value = symbol(sy.const(raw))
    elif raw == "":
        value = constant(1)
    else:
        try:
            value = constant(Fraction(raw))
        except (ValueError, ZeroDivisionError):
            raise CliError(f"bad coefficient {raw!r} in representative")
    if sign == "-":
        value = -value
    if base[1] is None:
        return (1, value, 0)
    return (value, 1, 0)


def cmd_reduce(args, config: RunConfig) -> Tuple[int, Dict]:
    man = config.manifold()
    coeffs = _parse_representative(args.rep)
    weight = 1
    if coeffs == (0, 0, 1):
        algebra = derive_point_algebra(man)
        if algebra.weight.denominator != 1 or algebra.weight < 0:
            raise CliError("derived scaling weight is not a nonnegative integer")
        weight = int(algebra.weight)
    red = reduce_representative(man, coeffs, weight=weight)
    result = {
        "representative": args.rep,
        "family": red.family,
        "invariant_z": pretty(red.invariant),
        "similarity": red.similarity,
        "ode": f"{pretty(red.lhs)} = {pretty(red.rhs)}",
        "back_substitution_multiple": pretty(red.multiple),
        "notes": red.notes,
    }
    return 0, _report("reduce", config, result)


def cmd_flow(args, config: RunConfig) -> Tuple[int, Dict]:
    man = config.manifold()
    algebra = derive_point_algebra(man)
    fields = [point_field_of(Characteristic(q)).field() for q in algebra.characteristics]
    if args.gen in ("1", "2", "3"):
        idx = int(args.gen) - 1
        field = fields[idx]
        label = f"v{args.gen}"
    elif "," not in args.gen:
        raise CliError(f"generator index must be 1, 2 or 3, not {args.gen!r}")
    else:
        vec = _parse_vec(args.gen)
        if not any(vec):
            raise CliError("the zero combination generates no flow")
        field = PointVectorField(
            xi=sum((constant(c) * f.xi for c, f in zip(vec, fields)), ZERO),
            tau=sum((constant(c) * f.tau for c, f in zip(vec, fields)), ZERO),
            eta=sum((constant(c) * f.eta for c, f in zip(vec, fields)), ZERO),
        )
        label = _coeff_string(vec)
    g = flow(field)
    try:
        inv = equation_invariance(man, g)
        invariance = {
            "factor": pretty(inv.factor),
            "exponent": inv.exponent(),
            "is_symmetry": True,
        }
    except NonSymmetryError as err:
        invariance = {
            "is_symmetry": False,
            "obstruction": pretty(err.residual),
        }
    result = {
        "generator": label,
        "maps": {
            "x": pretty(g.maps[0]),
            "t": pretty(g.maps[1]),
            "u": pretty(g.maps[2]),
        },
        "invariance": invariance,
    }
    # a combination of generators meets no claim
    derived = {f"flow {args.gen}": diagonal_exponents(g) if args.gen == "3" else g.maps}
    return 0, _report("flow", config, result, _claim_rows(derived))


# ---------------------------------------------------------------------------
# rendering and entry point
# ---------------------------------------------------------------------------


def _render_value(value, indent: int = 0) -> List[str]:
    pad = "  " * indent
    lines: List[str] = []
    if isinstance(value, dict):
        for key in value:
            sub = value[key]
            if isinstance(sub, (dict, list)):
                lines.append(f"{pad}{key}:")
                lines.extend(_render_value(sub, indent + 1))
            else:
                lines.append(f"{pad}{key}: {sub}")
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_render_value(item, indent + 1))
            else:
                lines.append(f"{pad}- {item}")
    else:
        lines.append(f"{pad}{value}")
    return lines


def render_text(report: Dict) -> str:
    lines = [f"== jetlie {report['command']} =="]
    cfg = report["config"]
    lines.append("config: " + " ".join(f"{k}={v}" for k, v in cfg.items()))
    lines.append("result:")
    lines.extend(_render_value(report["result"], 1))
    if report.get("claims"):
        lines.append("derived vs claimed:")
        for row in report["claims"]:
            mark = {True: "AGREE", False: "DIFFER"}.get(row["agrees"], row["agrees"])
            lines.append(
                f"  [{mark}] {row['name']}: claimed {row['claimed']}; "
                f"derived {row['derived']}"
            )
    return "\n".join(lines)


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jetlie",
        description=(
            "Exact Lie symmetry analysis and claim verification for the "
            "generalized short pulse equation u_xt = a*u + (b/3)*(u^3)_xx"
        ),
        epilog=(
            "A value of --alpha, --beta, --rep, --gen or --two may start with '-' "
            "(--alpha -5/2, --two -1,0,0 1,0,2).  A positional argument that starts "
            "with '-' needs '--' before it: verify -- -3*u, normalize -- -1/2 1 0."
        ),
    )
    parser.add_argument("--alpha", default="sym", help="'sym' or a nonzero rational")
    parser.add_argument("--beta", default="sym", help="'sym' or a nonzero rational")
    parser.add_argument("--max-order", type=int, default=12, dest="max_order")
    parser.add_argument(
        "--interp",
        choices=("third", "cubed", "both"),
        default="third",
        help="reading of the ambiguous u_{x^3} symbols",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text", dest="fmt")
    parser.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check a characteristic for the symmetry condition")
    p.add_argument("expression", help="characteristic in the input grammar")

    p = sub.add_parser("solve", help="solve a finite symmetry ansatz")
    p.add_argument(
        "basis",
        help="one of %s or a comma-separated monomial list" % (", ".join(BUILTIN_BASES)),
    )

    sub.add_parser("table", help="derived commutator table")
    sub.add_parser("adjoint", help="adjoint matrices and closed-form maps")

    p = sub.add_parser("normalize", help="optimal-system normalization")
    p.add_argument("coefficients", nargs="*", help="c1 c2 c3 for a 1d element")
    p.add_argument("--two", nargs=2, metavar="VEC", help="two comma-separated vectors")

    p = sub.add_parser("reduce", help="symmetry reduction to an ODE")
    p.add_argument("--rep", required=True, help="v1+a*v2 | b*v1+v2 | v3 (a, b rational or symbolic)")

    p = sub.add_parser("flow", help="one-parameter group of a generator")
    p.add_argument("--gen", required=True, help="generator index 1..3 or 'c1,c2,c3'")

    return parser


_COMMANDS = {
    "verify": cmd_verify,
    "solve": cmd_solve,
    "table": cmd_table,
    "adjoint": cmd_adjoint,
    "normalize": cmd_normalize,
    "reduce": cmd_reduce,
    "flow": cmd_flow,
}


# argparse reads a value that starts with '-' as an option; the values each takes
_SIGNED_VALUE_OPTIONS = {"--alpha": 1, "--beta": 1, "--rep": 1, "--gen": 1, "--two": 2}


def _attach_signed_values(argv: Sequence[str]) -> List[str]:
    """Up to `--`, join a signed value to its option (`--alp=-5/2`, which argparse
    resolves) or, for `--two`, prefix it with a space, which argparse reads as a value."""
    out: List[str] = []
    nargs = owed = 0  # values the last option above takes, and still owes
    for i, arg in enumerate(argv):
        if arg == "--":
            return out + list(argv[i:])
        if owed and not arg.startswith("--"):
            owed -= 1
            if arg.startswith("-") and nargs == 1:
                out[-1] = f"{out[-1]}={arg}"
            else:
                out.append(" " + arg if arg.startswith("-") else arg)
            continue
        out.append(arg)
        names = [o for o in _SIGNED_VALUE_OPTIONS if len(arg) > 2 and o.startswith(arg)]
        nargs = owed = _SIGNED_VALUE_OPTIONS[names[0]] if len(names) == 1 else 0
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_signed_values(sys.argv[1:] if argv is None else argv))
    config = RunConfig(
        alpha=args.alpha,
        beta=args.beta,
        max_order=args.max_order,
        interp=args.interp,
        fmt=args.fmt,
        seed=args.seed,
    )
    try:
        code, report = _COMMANDS[args.command](args, config)
    except (
        CliError,
        ParseError,
        ExprError,
        EngineError,
        AlgebraError,
        FlowError,
        JetOrderError,
    ) as err:
        if config.fmt == "text":
            print(f"error: {err}", file=sys.stderr)
            return 2
        code, report = 2, {
            "command": args.command,
            "error": {"type": type(err).__name__, "message": str(err)},
        }
    if config.fmt == "json":
        out = json.dumps(report, indent=2, sort_keys=True, default=str)
    else:
        out = render_text(report)
    try:
        print(out)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: point stdout at the null device, as the `signal`
        # module's SIGPIPE note advises, so that the flush at exit cannot raise
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    return code


if __name__ == "__main__":
    sys.exit(main())
