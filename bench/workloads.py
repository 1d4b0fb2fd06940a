"""Seeded job lists for the three benchmark workloads, with hand-written answers.

Every expected value below comes from the construction of the job or from
the verdicts recorded for the paper's claims; none is read back from the
program under test.  See NOTES.md for why each workload exists.

A job is a `jetlie` argv plus an `Expect`.  Field paths are dotted keys into
the report (`result.verdicts.0.is_symmetry`); claim expectations map a claim
row name to its `agrees` value, or to `(agrees, derived)`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

WORKLOADS = ("scan", "verify-stream", "audit")

# Jobs per verify-stream pass; a multiple of 20 keeps the K3 (1/4), extra
# monomial (3/5) and sym/point (1/2) mixes exact in every pass.
VERIFY_STREAM_JOBS = 100

# Point symmetries of u_xt = a*u + (b/3)*(u^3)_xx: u_x, u_t and the weight-1
# scaling (point algebra of dimension 3, scaling weight 1).
SCALING = "x*u[1,0] - t*u[0,1] - u"

# The radical third-order symmetry D_x(u_xx * (2*b*u_x^2 + a)^(-3/2)),
# differentiated by hand.
K3 = (
    "u[3,0]*sqrt(2*b*u[1,0]^2 + a)^-3"
    " - 6*b*u[1,0]*u[2,0]^2*sqrt(2*b*u[1,0]^2 + a)^-5"
)

# Monomials of the order-2, degree-3 scan basis other than u_x and u_t.  The
# order-2 scan spans only the point algebra, so none of these is a symmetry,
# and adding one to a symmetry gives a non-symmetry by linearity.
NON_SYMMETRY_MONOMIALS = (
    "1", "x", "t", "u", "x*u", "t*u", "u^2", "u^3", "u*u[1,0]", "u*u[2,0]",
    "u[2,0]", "u[0,2]", "x*u[1,0]", "t*u[0,1]", "x*u[0,1]", "t*u[1,0]",
    "x*u[2,0]", "t*u[0,2]", "u[1,0]^2", "u[1,0]^3", "u[1,0]*u[0,1]",
    "u[0,1]^2", "u[1,0]*u[2,0]",
)

# Claim catalogue entries checked by `verify` under both readings of
# u_{x^3}: (candidate, {claim row name: agrees}, residual zero per reading).
_V5_TAIL = " - b^3*u[2,0]^6*u[3,0] - 3/2*a*b^2*u[1,0]*u[2,0]^4 - a^2*b*u[1,0]^3"
CLAIM_CATALOGUE = (
    ("u[1,0]", {"claimed x-translation (symmetry)": True}, True),
    ("u[0,1]", {"claimed t-translation (symmetry)": True}, True),
    ("x*u[1,0] - t*u[0,1] - 3*u", {"claimed scaling with weight 3 (symmetry)": False}, False),
    (
        "u[3,0]/sqrt(2*b*u[3,0]^2 + a)",
        {"claimed local symmetry v4[third]": False, "claimed local symmetry v4[cubed]": False},
        False,
    ),
    (
        "u[3,0]" + _V5_TAIL,
        {"claimed local symmetry v5[third]": False, "claimed local symmetry v5[cubed]": False},
        False,
    ),
    (
        "u[0,3]" + _V5_TAIL,
        {
            "claimed local symmetry v5-tlead[third]": False,
            "claimed local symmetry v5-tlead[cubed]": False,
        },
        False,
    ),
)

# Claimed third-order family: c2 = u_t and c5 = u_x pass, c1, c3, c4 fail.
FAMILY_VERDICTS = {"c1": False, "c2": True, "c3": False, "c4": False, "c5": True}


@dataclass
class Expect:
    exit: int = 0
    fields: Dict[str, object] = field(default_factory=dict)
    claims: Dict[str, object] = field(default_factory=dict)


@dataclass
class Job:
    argv: List[str]
    expect: Expect


def _nonzero_rational(rng: random.Random, top: int = 5, den: int = 3) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, top), rng.randint(1, den))


def seeded_point(rng: random.Random) -> Tuple[Fraction, Fraction]:
    """(alpha, beta), neither of them +-1: a unit parameter makes the exact
    arithmetic cheaper, and a pass should cost about the same for every seed."""

    def param():
        while True:
            value = _nonzero_rational(rng)
            if abs(value) != 1:
                return value

    return param(), param()


def point_args(point: Optional[Tuple[Fraction, Fraction]]) -> List[str]:
    """Parameter flags; `--alpha=<q>` keeps argparse from reading -q as an option."""
    if point is None:
        return []
    return [f"--alpha={point[0]}", f"--beta={point[1]}"]


def _signed_sum(terms: List[Tuple[Fraction, str]]) -> str:
    out = []
    for c, body in terms:
        text = f"{abs(c)}*{body}"
        if not out:
            out.append(("-" if c < 0 else "") + text)
        else:
            out.append(("- " if c < 0 else "+ ") + text)
    return " ".join(out)


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------


def scan_jobs(rng: random.Random) -> List[Job]:
    point = seeded_point(rng)
    jobs = []
    for spec, order, basis_size in (("order-2", 2, 168), ("order-4", 4, 165)):
        for p in (None, point):
            jobs.append(Job(
                point_args(p) + ["--format", "json", "solve", spec],
                Expect(
                    fields={
                        "result.basis": spec,
                        "result.basis_size": basis_size,
                        "result.dimension": 3,
                        "result.new_dimension": 0,
                        "result.label": "ansatz-bounded",
                    },
                    claims={
                        f"no nontrivial order-{order} characteristics (ansatz-bounded)": True
                    },
                ),
            ))
    return jobs


# ---------------------------------------------------------------------------
# verify-stream
# ---------------------------------------------------------------------------


def verify_stream_jobs(rng: random.Random) -> List[Job]:
    point = seeded_point(rng)
    # The extra monomials rotate through the list from a seeded start, so
    # every seed draws each of them about equally often.
    first = rng.randrange(len(NON_SYMMETRY_MONOMIALS))
    jobs = []
    for j in range(VERIFY_STREAM_JOBS):
        with_k3 = j % 4 == 3
        with_extra = j % 5 < 3
        at_point = (j // 4) % 2 == 1
        terms = [
            (_nonzero_rational(rng, 9, 5), "u[1,0]"),
            (_nonzero_rational(rng, 9, 5), "u[0,1]"),
            (_nonzero_rational(rng, 9, 5), f"({SCALING})"),
        ]
        if with_k3:
            terms.append((_nonzero_rational(rng, 9, 5), f"({K3})"))
        if with_extra:
            monomial = NON_SYMMETRY_MONOMIALS[(first + j) % len(NON_SYMMETRY_MONOMIALS)]
            terms.append((_nonzero_rational(rng, 9, 5), monomial))
        rng.shuffle(terms)
        jobs.append(Job(
            point_args(point if at_point else None)
            + ["--format", "json", "verify", "--", _signed_sum(terms)],
            Expect(
                exit=1 if with_extra else 0,
                fields={
                    "result.verdicts.0.reading": "third",
                    "result.verdicts.0.is_symmetry": not with_extra,
                    "result.verdicts.0.spot_check.agrees": True,
                },
            ),
        ))
    return jobs


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------


def _verify_claim_jobs(base: List[str]) -> List[Job]:
    jobs = []
    for text, claims, is_symmetry in CLAIM_CATALOGUE:
        fields = {}
        for k, reading in enumerate(("third", "cubed")):
            fields[f"result.verdicts.{k}.reading"] = reading
            fields[f"result.verdicts.{k}.is_symmetry"] = is_symmetry
            fields[f"result.verdicts.{k}.spot_check.agrees"] = True
        jobs.append(Job(
            base + ["--interp", "both", "verify", "--", text],
            Expect(exit=0 if is_symmetry else 1, fields=fields, claims=claims),
        ))
    return jobs


def _solve_jobs(base: List[str]) -> List[Job]:
    family_claims = {
        f"claimed family member {c} [{reading}]": ok
        for reading in ("third", "cubed")
        for c, ok in FAMILY_VERDICTS.items()
    }
    order3_fields = {}
    for k, reading in enumerate(("third", "cubed")):
        order3_fields[f"result.scans.{k}.reading"] = reading
        order3_fields[f"result.scans.{k}.dimension"] = 3
        order3_fields[f"result.scans.{k}.new_dimension_at_order_3"] = 0
    return [
        Job(base + ["solve", "point-affine"], Expect(
            fields={"result.dimension": 3, "result.derived_scaling_weight": "1"},
            claims={
                "point algebra dimension": True,
                "scaling weight in x*u_x - t*u_t - c*u": (False, "1"),
            },
        )),
        Job(base + ["--interp", "both", "solve", "order-3"],
            Expect(fields=order3_fields, claims=family_claims)),
        Job(base + ["solve", "order-3-derived"], Expect(
            fields={
                "result.scans.0.dimension": 3,
                "result.scans.0.new_dimension_at_order_3": 1,
            },
            claims={
                "third-order symmetry over kernel 2*beta*u_x^2 + alpha [third]":
                    ("n/a", "1 new dimension(s)"),
            },
        )),
        Job(base + ["table"], Expect(
            fields={
                "result.derived_scaling_weight": "1",
                "result.table": [["0", "0", "v1"], ["0", "0", "-v2"], ["-v1", "v2", "0"]],
            },
            claims={"commutator table ([v1,v3]=v1, [v2,v3]=-v2, rest 0)": True},
        )),
        Job(base + ["adjoint"], Expect(claims={
            "adjoint map F2: (c1, c2 + eps*c3, c3)": True,
            "adjoint map F1: (c1 + eps*c3, c2, c3)": "up to eps -> -eps",
            "adjoint map F3: (exp(-eps)c1, exp(eps)c2, c3)": "up to eps -> -eps",
        })),
    ]


def _normalize_jobs(base: List[str], rng: random.Random) -> List[Job]:
    def r():
        return _nonzero_rational(rng)

    jobs = []
    c3_set, c1_set, c2_only = (r(), r(), r()), (r(), r(), 0), (0, r(), 0)
    for c, fields in (
        (c3_set, {"result.family": "v3", "result.representative": "v3",
                  "result.parameter": None}),
        (c1_set, {"result.family": "v1 + a*v2", "result.parameter": str(c1_set[1] / c1_set[0])}),
        (c2_only, {"result.family": "b*v1 + v2", "result.representative": "v2",
                   "result.parameter": "0"}),
    ):
        jobs.append(Job(
            base + ["normalize", "--"] + [str(v) for v in c],
            Expect(fields=fields, claims={"one-dimensional optimal system membership": True}),
        ))
    # 2-d: two independent vectors inside span{v_i, v_j}, which is a
    # subalgebra for each pair below.
    for rep in (("v1", "v2"), ("v1", "v3"), ("v2", "v3")):
        slots = [int(name[1]) - 1 for name in rep]
        while True:
            h1, h2 = [Fraction(0)] * 3, [Fraction(0)] * 3
            for s in slots:
                h1[s], h2[s] = r(), r()
            if h1[slots[0]] * h2[slots[1]] != h1[slots[1]] * h2[slots[0]]:
                break
        h1, h2 = _lead_positive(h1), _lead_positive(h2)
        jobs.append(Job(base + ["normalize", "--two", _vec(h1), _vec(h2)], Expect(
            fields={"result.mode": "2d", "result.representative": list(rep)},
            claims={"two-dimensional optimal system membership": True},
        )))
    # (p, q, 0) and (0, 0, w) with p, q != 0: the bracket w*(p*v1 - q*v2)
    # leaves their span, so this is rejected with exit 2.
    (p, q, _), (_, _, w) = _lead_positive([r(), r(), 0]), _lead_positive([0, 0, r()])
    jobs.append(Job(
        base + ["normalize", "--two", _vec([p, q, 0]), _vec([0, 0, w])],
        Expect(exit=2, fields={
            "result.mode": "2d",
            "result.offending_bracket": [str(p * w), str(-q * w), "0"],
        }),
    ))
    return jobs


def _lead_positive(v: List[Fraction]) -> List[Fraction]:
    """v or -v, whichever has a positive first nonzero entry.  Vectors for
    `--two` cannot start with '-', which argparse would read as an option."""
    lead = next(x for x in v if x)
    return [-x for x in v] if lead < 0 else v


def _vec(v: List[Fraction]) -> str:
    return ",".join(str(x) for x in v)


def _reduce_jobs(base: List[str], rng: random.Random) -> List[Job]:
    a = _nonzero_rational(rng)
    b = _nonzero_rational(rng)
    rep_a = f"v1+{a}*v2" if a > 0 else f"v1-{-a}*v2"
    return [
        Job(base + ["reduce", f"--rep={rep_a}"], Expect(fields={
            "result.family": "v1 + a*v2", "result.similarity": "u = w(z)"})),
        # b = 1 gives v1 + v2, which both families contain; the first is preferred.
        Job(base + ["reduce", f"--rep={b}*v1+v2"], Expect(fields={
            "result.family": "v1 + a*v2" if b == 1 else "b*v1 + v2",
            "result.similarity": "u = w(z)"})),
        Job(base + ["reduce", "--rep=v1+a*v2"], Expect(fields={
            "result.family": "v1 + a*v2", "result.similarity": "u = w(z)"})),
        # weight 1 scaling: u = x^1 * w(x*t)
        Job(base + ["reduce", "--rep=v3"], Expect(fields={
            "result.family": "v3", "result.similarity": "u = x*w(z)"})),
    ]


def _flow_jobs(base: List[str], rng: random.Random) -> List[Job]:
    jobs = []
    for gen in ("1", "2"):
        jobs.append(Job(base + ["flow", "--gen", gen], Expect(
            fields={"result.generator": f"v{gen}", "result.invariance.is_symmetry": True,
                    "result.invariance.exponent": 0},
            claims={f"translation flow G{gen}": True},
        )))
    jobs.append(Job(base + ["flow", "--gen", "3"], Expect(
        fields={"result.generator": "v3", "result.invariance.is_symmetry": True,
                "result.invariance.exponent": 1},
        claims={"scaling flow exponents (x, t, u)": (False, "(1, -1, 1)")},
    )))
    # c1*v1 + c2*v2 + c3*v3 scales u by exp(c3*eps): conformal factor exp(eps)^c3.
    vec = [rng.randint(-3, 3), rng.randint(-3, 3), rng.choice((-3, -2, -1, 1, 2, 3))]
    jobs.append(Job(base + ["flow", "--gen=" + ",".join(map(str, vec))], Expect(
        fields={"result.invariance.is_symmetry": True, "result.invariance.exponent": vec[2]},
    )))
    return jobs


def audit_jobs(rng: random.Random) -> List[Job]:
    point = seeded_point(rng)
    jobs = []
    for p in (None, point):
        for fmt in ("text", "json"):
            base = point_args(p) + ["--format", fmt]
            jobs += _verify_claim_jobs(base)
            jobs += _solve_jobs(base)
            jobs += _normalize_jobs(base, rng)
            jobs += _reduce_jobs(base, rng)
            jobs += _flow_jobs(base, rng)
    return jobs


_BUILDERS = {"scan": scan_jobs, "verify-stream": verify_stream_jobs, "audit": audit_jobs}


def build_jobs(workload: str, seed: int) -> List[Job]:
    """The job list of one pass; the same (workload, seed) gives the same jobs."""
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))
