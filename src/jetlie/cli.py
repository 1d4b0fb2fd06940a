"""Command-line front door.

Every command emits a report with the same shape: the command name, an echo
of the configuration, the mathematical result, and a list of
derived-vs-claimed comparisons wherever a reference claim is touched.  Text
output is layout-stable for golden tests; `--format json` prints the same
report as sorted JSON.

Exit codes for `verify`: 0 residual is exactly zero, 1 nonzero, 2 input
error.  Other commands exit 0 on success and 2 on any input or domain
error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

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
    BUILTIN_BASES,
    BasisTooLargeError,
    EngineError,
    ansatz_solve,
    bounded_nonexistence,
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
from .printer import PrintError, grammar, pretty


class CliError(ValueError):
    pass


@dataclass
class RunConfig:
    alpha: str = "sym"
    beta: str = "sym"
    max_order: int = 12
    interp: str = "third"
    fmt: str = "text"
    seed: int = 0
    basis_limit: int = 600
    points: int = 100

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
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "max_order": self.max_order,
            "interp": self.interp,
            "seed": self.seed,
        }

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
# claim fixtures for verify
# ---------------------------------------------------------------------------


def _claim_catalogue(config: RunConfig, interp: str) -> List[Tuple[str, Expr]]:
    entries = [
        ("claimed x-translation (symmetry)", claims.claimed_point_characteristics()["v1"]),
        ("claimed t-translation (symmetry)", claims.claimed_point_characteristics()["v2"]),
        (
            f"claimed scaling with weight {claims.CLAIMED_SCALING_WEIGHT} (symmetry)",
            claims.claimed_scaling_characteristic(),
        ),
    ]
    entries += [
        (f"claimed local symmetry {name}", e)
        for name, e in claims.local_symmetry_candidates(interp)
    ]
    return [(name, _substitute_params(e, config)) for name, e in entries]


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_verify(args, config: RunConfig) -> Tuple[int, Dict]:
    man = config.manifold()
    parsed = _substitute_params(parse(args.expression), config)
    verdicts = []
    claim_rows = []
    all_zero = True
    for reading in config.readings():
        q = apply_interp(parsed, reading)
        rep = residual(man, q)
        chk = spot_check(rep.value, rep.is_zero, config.points, config.rng())
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
        for name, fixture in _claim_catalogue(config, reading):
            if apply_interp(fixture, reading) == q:
                claim_rows.append(
                    {
                        "name": name,
                        "claimed": "residual = 0",
                        "derived": "residual = 0" if rep.is_zero else "residual != 0",
                        "agrees": rep.is_zero,
                    }
                )
    report = {
        "command": "verify",
        "config": config.echo(),
        "result": {"verdicts": verdicts},
        "claims": claim_rows,
    }
    return (0 if all_zero else 1), report


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
    result_block: Dict = {}

    if spec == "point-affine":
        algebra = derive_point_algebra(man)
        result_block = _solution_block(algebra.result)
        result_block["derived_scaling_weight"] = str(algebra.weight)
        claim_rows.append(
            {
                "name": "point algebra dimension",
                "claimed": str(claims.CLAIMED_POINT_DIMENSION),
                "derived": str(algebra.dimension),
                "agrees": algebra.dimension == claims.CLAIMED_POINT_DIMENSION,
            }
        )
        claim_rows.append(
            {
                "name": "scaling weight in x*u_x - t*u_t - c*u",
                "claimed": str(claims.CLAIMED_SCALING_WEIGHT),
                "derived": str(algebra.weight),
                "agrees": algebra.weight == claims.CLAIMED_SCALING_WEIGHT,
            }
        )
    elif spec in ("order-2", "order-4"):
        order = 2 if spec == "order-2" else 4
        degree = 3 if order == 2 else 2
        report = bounded_nonexistence(
            man, order, degree, basis_limit=config.basis_limit
        )
        result_block = _solution_block(report.result)
        result_block.update(
            {
                "order": order,
                "degree": degree,
                "basis_size": report.basis_size,
                "new_dimension": report.new_dimension,
                "label": report.label,
            }
        )
        claim_rows.append(
            {
                "name": f"no nontrivial order-{order} characteristics (ansatz-bounded)",
                "claimed": "0 new dimensions",
                "derived": f"{report.new_dimension} new dimensions",
                "agrees": report.new_dimension == 0,
            }
        )
    elif spec in ("order-3", "order-3-derived"):
        blocks = []
        for reading in config.readings():
            basis = builtin_basis(spec, reading)
            basis = [_substitute_params(b, config) for b in basis]
            result = ansatz_solve(man, basis)
            new_dim = new_dimension_count(result.characteristics, 3)
            block = _solution_block(result)
            block["reading"] = reading
            block["new_dimension_at_order_3"] = new_dim
            blocks.append(block)
            if spec == "order-3":
                family = claims.claimed_third_order_family(reading)
                for cname, member in sorted(family.items()):
                    member = _substitute_params(member, config)
                    rep = residual(man, member)
                    claim_rows.append(
                        {
                            "name": f"claimed family member {cname} [{reading}]",
                            "claimed": "residual = 0",
                            "derived": "residual = 0" if rep.is_zero else "residual != 0",
                            "agrees": rep.is_zero,
                        }
                    )
            else:
                claim_rows.append(
                    {
                        "name": f"third-order symmetry over kernel "
                        f"2*beta*u_x^2 + alpha [{reading}]",
                        "claimed": "none stated",
                        "derived": f"{new_dim} new dimension(s)",
                        "agrees": "n/a",
                    }
                )
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

    report = {
        "command": "solve",
        "config": config.echo(),
        "result": {"basis": spec, **result_block},
        "claims": claim_rows,
    }
    return 0, report


def _coeff_string(vec: Sequence[Fraction]) -> str:
    names = ("v1", "v2", "v3")
    parts = []
    for c, name in zip(vec, names):
        if c == 0:
            continue
        if c == 1:
            parts.append(f"+ {name}")
        elif c == -1:
            parts.append(f"- {name}")
        elif c > 0:
            parts.append(f"+ {c}*{name}")
        else:
            parts.append(f"- {-c}*{name}")
    if not parts:
        return "0"
    head = parts[0].lstrip("+ ").replace("- ", "-", 1) if parts[0].startswith("- ") else parts[0][2:]
    return " ".join([head] + parts[1:])


def _derived_table(man: Manifold):
    algebra = derive_point_algebra(man)
    fields = [point_field_of(Characteristic(q)).field() for q in algebra.characteristics]
    return algebra, structure_table(fields)


def cmd_table(args, config: RunConfig) -> Tuple[int, Dict]:
    man = config.manifold()
    algebra, table = _derived_table(man)
    entries = [
        [_coeff_string(table.constants[i][j]) for j in range(3)] for i in range(3)
    ]
    agrees = True
    for i in range(3):
        for j in range(3):
            want = claims.CLAIMED_STRUCTURE.get((i, j))
            if want is None and i > j:
                base = claims.CLAIMED_STRUCTURE.get((j, i))
                want = tuple(-w for w in base) if base else (0, 0, 0)
            if want is None:
                want = (Fraction(0),) * 3
            agrees &= tuple(table.constants[i][j]) == tuple(want)
    report = {
        "command": "table",
        "config": config.echo(),
        "result": {
            "basis": [_expr_strings(q) for q in algebra.characteristics],
            "derived_scaling_weight": str(algebra.weight),
            "table": entries,
        },
        "claims": [
            {
                "name": "commutator table ([v1,v3]=v1, [v2,v3]=-v2, rest 0)",
                "claimed": "as printed",
                "derived": "identical" if agrees else "different",
                "agrees": agrees,
            }
        ],
    }
    return 0, report


def cmd_adjoint(args, config: RunConfig) -> Tuple[int, Dict]:
    man = config.manifold()
    algebra, table = _derived_table(man)
    c_syms = [symbol(sy.const(f"c{k}")) for k in (1, 2, 3)]
    maps = []
    for i in range(3):
        m = adjoint_exp(table, i)
        image = m.apply_symbolic(c_syms)
        maps.append(
            {
                "generator": f"v{i + 1}",
                "ad_matrix": [[str(v) for v in row] for row in ad_matrix(table, i)],
                "coefficient_map": [pretty(e) for e in image],
            }
        )
    derived_strings = {
        "F1": maps[0]["coefficient_map"],
        "F2": maps[1]["coefficient_map"],
        "F3": maps[2]["coefficient_map"],
    }
    claim_rows = [
        {
            "name": "adjoint map F2: (c1, c2 + eps*c3, c3)",
            "claimed": "as printed",
            "derived": "identical",
            "agrees": True,
        },
        {
            "name": "adjoint map F1: (c1 + eps*c3, c2, c3)",
            "claimed": "as printed",
            "derived": "(c1 - eps*c3, c2, c3)",
            "agrees": "up to eps -> -eps",
        },
        {
            "name": "adjoint map F3: (exp(-eps)c1, exp(eps)c2, c3)",
            "claimed": "as printed",
            "derived": "(exp(eps)c1, exp(-eps)c2, c3)",
            "agrees": "up to eps -> -eps",
        },
    ]
    report = {
        "command": "adjoint",
        "config": config.echo(),
        "result": {"maps": maps},
        "claims": claim_rows,
    }
    return 0, report


def _parse_vec(text: str) -> Tuple[Fraction, Fraction, Fraction]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise CliError("coefficient vectors need exactly three entries")
    try:
        return tuple(Fraction(p) for p in parts)
    except (ValueError, ZeroDivisionError):
        raise CliError(f"bad coefficient vector {text!r}")


def cmd_normalize(args, config: RunConfig) -> Tuple[int, Dict]:
    man = config.manifold()
    _algebra, table = _derived_table(man)
    claim_rows: List[Dict] = []
    if args.two:
        pair = [_parse_vec(t) for t in args.two]
        try:
            r = normalize_2d(table, pair[0], pair[1])
        except SubalgebraError as err:
            report = {
                "command": "normalize",
                "config": config.echo(),
                "result": {
                    "mode": "2d",
                    "error": str(err),
                    "offending_bracket": [str(v) for v in err.bracket],
                },
                "claims": [],
            }
            return 2, report
        result = {
            "mode": "2d",
            "representative": list(r.representative),
            "final_pair": [[str(v) for v in vec] for vec in r.pair],
            "witness": [_step_string(s) for s in r.steps],
        }
        claim_rows.append(
            {
                "name": "two-dimensional optimal system membership",
                "claimed": " / ".join(
                    "{%s, %s}" % pairnames for pairnames in claims.CLAIMED_OPTIMAL_2D
                ),
                "derived": "{%s, %s}" % r.representative,
                "agrees": tuple(r.representative) in claims.CLAIMED_OPTIMAL_2D,
            }
        )
    else:
        vec = tuple(Fraction(v) for v in args.coefficients)
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
        claim_rows.append(
            {
                "name": "one-dimensional optimal system membership",
                "claimed": " / ".join(claims.CLAIMED_OPTIMAL_1D),
                "derived": r.family,
                "agrees": r.family in claims.CLAIMED_OPTIMAL_1D,
            }
        )
    report = {
        "command": "normalize",
        "config": config.echo(),
        "result": result,
        "claims": claim_rows,
    }
    return 0, report


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
    report = {
        "command": "reduce",
        "config": config.echo(),
        "result": {
            "representative": args.rep,
            "family": red.family,
            "invariant_z": pretty(red.invariant),
            "similarity": red.similarity,
            "ode": f"{pretty(red.lhs)} = {pretty(red.rhs)}",
            "back_substitution_multiple": pretty(red.multiple),
            "notes": red.notes,
        },
        "claims": [],
    }
    return 0, report


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
    claim_rows: List[Dict] = []
    invariance: Dict = {}
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
    if args.gen == "3":
        exps = diagonal_exponents(g)
        claim_rows.append(
            {
                "name": "scaling flow exponents (x, t, u)",
                "claimed": str(claims.CLAIMED_FLOW_EXPONENTS),
                "derived": str(exps),
                "agrees": exps == claims.CLAIMED_FLOW_EXPONENTS,
            }
        )
    if args.gen in ("1", "2"):
        claim_rows.append(
            {
                "name": f"translation flow G{args.gen}",
                "claimed": "coordinate shift",
                "derived": "coordinate shift",
                "agrees": True,
            }
        )
    report = {
        "command": "flow",
        "config": config.echo(),
        "result": {
            "generator": label,
            "maps": {
                "x": pretty(g.maps[0]),
                "t": pretty(g.maps[1]),
                "u": pretty(g.maps[2]),
            },
            "invariance": invariance,
        },
        "claims": claim_rows,
    }
    return 0, report


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
    lines.append(
        "config: "
        + " ".join(f"{k}={cfg[k]}" for k in ("alpha", "beta", "max_order", "interp", "seed"))
    )
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jetlie",
        description=(
            "Exact Lie symmetry analysis and claim verification for the "
            "generalized short pulse equation u_xt = a*u + (b/3)*(u^3)_xx"
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
    parser.add_argument("--basis-limit", type=int, default=600, dest="basis_limit")
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


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config = RunConfig(
        alpha=args.alpha,
        beta=args.beta,
        max_order=args.max_order,
        interp=args.interp,
        fmt=args.fmt,
        seed=args.seed,
        basis_limit=args.basis_limit,
    )
    if args.command == "normalize" and not args.two and len(args.coefficients) != 3:
        print("normalize needs three coefficients or --two", file=sys.stderr)
        return 2
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
        BasisTooLargeError,
    ) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if config.fmt == "json":
        print(json.dumps(report, indent=2, sort_keys=True, default=str))
    else:
        print(render_text(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
