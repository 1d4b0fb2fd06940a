"""Benchmark of the `jetlie` CLI: one closed-loop client, jobs run in-process.

    python3 bench/run.py --workload scan|verify-stream|audit --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its `src/`.
Each run builds the workload's job list from the seed, then repeats passes
over it until `--seconds` have elapsed (at least one pass), checking every
job against its hand-written answer.  The last line of standard output is
one JSON object: `correct`, `attempted`, `failed` and `metrics` (end-to-end
metrics with `--trace 0`, per-layer metrics with `--trace 1`).  Earlier
lines, starting with `#`, are informational.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

from checker import check
from tracer import count_expr_ops, tracing
from workloads import WORKLOADS, Job, build_jobs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_trace"

# A fresh-process import varies by tens of percent, so set-up time is the
# median of this many processes, after one warm-up process.
SETUP_PROCESSES = 7
_SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    "import jetlie.cli\n"
    "jetlie.cli.RunConfig().manifold()\n"
    "print(time.perf_counter() - t0)\n"
)


def load_cli():
    """Import `jetlie.cli` from this checkout's sources, or exit with code 2."""
    if not (SRC / "jetlie" / "cli.py").is_file():
        print(f"error: no jetlie sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import jetlie.cli

    if Path(jetlie.cli.__file__).resolve().parent != (SRC / "jetlie").resolve():
        print(f"error: imported jetlie from {jetlie.cli.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return jetlie.cli


def measure_setup() -> float:
    times = []
    for _ in range(SETUP_PROCESSES + 1):
        done = subprocess.run(
            [sys.executable, "-I", "-c", _SETUP_CODE, str(SRC)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times[1:])


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    job_ms: Dict[int, List[float]] = field(default_factory=dict)  # per job, per pass
    walls: List[float] = field(default_factory=list)
    digests: List[str] = field(default_factory=list)


def _fmt(job: Job) -> str:
    return job.argv[job.argv.index("--format") + 1]


def run_job(cli, argv: List[str]):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code
    except Exception:  # a crash counts as a failed job; the run goes on
        code = None
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


def run_pass(cli, jobs: List[Job], tally: Tally) -> None:
    gc.collect()
    start = time.perf_counter()
    outcomes = [run_job(cli, job.argv) for job in jobs]
    tally.walls.append(time.perf_counter() - start)
    digest = hashlib.sha256()
    for k, (job, (code, out, err, seconds)) in enumerate(zip(jobs, outcomes)):
        digest.update(out.encode())
        tally.attempted += 1
        tally.job_ms.setdefault(k, []).append(seconds * 1000.0)
        problems = check(job.expect, _fmt(job), code, out)
        if problems:
            tally.failed += 1
            tally.problems.append(f"{job.argv}: {'; '.join(problems)} {err.strip()[-300:]}")
    tally.digests.append(digest.hexdigest())


def run_phase(cli, jobs: List[Job], seconds: float) -> Tally:
    """Passes until `seconds` have elapsed; at least one."""
    tally = Tally()
    start = time.perf_counter()
    while True:
        run_pass(cli, jobs, tally)
        if time.perf_counter() - start >= seconds:
            return tally


def job_medians(tally: Tally) -> List[float]:
    """Each job's median time over the passes, in ms.  A pass repeats the same
    jobs, and the median drops the noise of single samples."""
    return [statistics.median(ms) for ms in tally.job_ms.values()]


def pass_seconds(tally: Tally) -> float:
    """The time of one pass: the sum of the job medians."""
    return sum(job_medians(tally)) / 1000.0


def end_to_end(tally: Tally, setup_s: float) -> Dict[str, float]:
    cuts = statistics.quantiles(job_medians(tally), n=100, method="inclusive")
    return {
        "wall_s": pass_seconds(tally),
        "job_p50_ms": cuts[49],
        "job_p95_ms": cuts[94],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }


def per_layer(tracer, traced: Tally, base: Tally, ops: Counter, counted: Tally) -> Dict[str, float]:
    n = len(traced.walls)
    layers = tracer.layer_times()
    counts = tracer.counts

    def self_s(layer):
        return layers.get(layer, {}).get("self_s", 0.0) / n

    def calls(layer):
        return layers.get(layer, {}).get("calls", 0) / n

    mixed_calls = counts["jets.mixed_calls"]
    traced_wall = pass_seconds(traced)
    return {
        "engine.assembly_s": self_s("engine.ansatz"),
        "engine.ansatz_calls": calls("engine.ansatz"),
        "engine.basis_size": counts["engine.basis_size"] / n,
        "engine.residual_self_s": self_s("engine.residual"),
        "engine.residual_calls": calls("engine.residual"),
        "engine.residual_terms": counts["engine.residual_terms"] / n,
        "engine.reverify_s": tracer.reverify_seconds() / n,
        "engine.spot_check_s": self_s("engine.spot_check"),
        "engine.point_algebra_calls": calls("engine.point_algebra"),
        "engine.other_s": self_s("engine.other"),
        "jets.total_d_s": self_s("jets.total_d"),
        "jets.total_d_calls": calls("jets.total_d"),
        "jets.mixed_calls": mixed_calls / n,
        "jets.mixed_misses": counts["jets.mixed_misses"] / n,
        "jets.mixed_hit_ratio": 1.0 - counts["jets.mixed_misses"] / mixed_calls if mixed_calls else 0.0,
        "jets.manifold_s": self_s("jets.manifold"),
        "linsolve.split_s": self_s("linsolve.split"),
        "linsolve.nullspace_s": self_s("linsolve.nullspace"),
        "linsolve.rref_s": self_s("linsolve.rref"),
        "linsolve.rows": counts["linsolve.rows"] / n,
        "linsolve.rank": counts["linsolve.rank"] / n,
        "parser.parse_s": self_s("parser.parse"),
        "printer.print_s": self_s("printer"),
        "printer.calls": calls("printer"),
        "cli.self_s": self_s("cli"),
        "claims.s": self_s("claims"),
        "fields.s": self_s("fields"),
        "algebra.s": self_s("algebra"),
        "groups.s": self_s("groups"),
        "expr.add_calls": ops["expr.add_calls"] / len(counted.walls),
        "expr.mul_calls": ops["expr.mul_calls"] / len(counted.walls),
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - pass_seconds(base),
        "trace.spans": len(tracer.spans) / n,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_cli()
    jobs = build_jobs(args.workload, args.seed)
    if args.trace:
        third = args.seconds / 3
        base = run_phase(cli, jobs, third)
        with tracing() as tracer:
            traced = run_phase(cli, jobs, third)
        with count_expr_ops(Counter()) as ops:
            counted = run_phase(cli, jobs, third)
        tallies = [base, traced, counted]
        metrics = per_layer(tracer, traced, base, ops, counted)
        TRACE_DIR.mkdir(exist_ok=True)
        span_file = TRACE_DIR / f"{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(span_file)
        core = sum(metrics[k] for k in (
            "engine.assembly_s", "engine.residual_self_s", "jets.total_d_s",
            "linsolve.split_s", "linsolve.nullspace_s", "linsolve.rref_s"))
        print(f"# spans: {span_file.relative_to(ROOT)}")
        print(f"# assembly + residual + total_d + linsolve self time: "
              f"{core / metrics['trace.wall_s']:.3f} of traced wall_s")
    else:
        setup_s = measure_setup()
        tally = run_phase(cli, jobs, args.seconds)
        tallies = [tally]
        metrics = end_to_end(tally, setup_s)

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    digests = [d for t in tallies for d in t.digests]
    print(f"# workload {args.workload} seed {args.seed}: {len(jobs)} jobs per pass, "
          f"{sum(len(t.walls) for t in tallies)} passes")
    print(f"# report_sha256 {digests[0]} (same in every pass: {len(set(digests)) == 1})")
    print(f"# failed_frac {failed / attempted}")
    for problem in [p for t in tallies for p in t.problems][:5]:
        print(f"FAILED {problem}", file=sys.stderr)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in declared["per_layer" if args.trace else "end_to_end"]
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
