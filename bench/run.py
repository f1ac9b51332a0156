"""haleform benchmark: seeded workloads against the public haleform API.

    python3 bench/run.py --workload certify --seed 1 --seconds 40 --trace 0

Run from the repository root; the package is imported from ``src/``. With
``--trace 0`` the run sets up (median of five set-ups), then runs a fixed
number of rounds, ``--seconds`` over the nominal round time, each on the
seed's same inputs, and reports the end-to-end metrics. With ``--trace 1`` it
runs half as many rounds untraced, then as many traced, and reports the
per-layer metrics. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; the lines before it record
the environment and the run.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

# one process, one BLAS/OpenMP thread: set before numpy is imported
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import hashlib
import resource
import statistics
import subprocess
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 5
# a round of either workload, its output checks included, takes about 5 s
# on a 2-vCPU x86-64 VM
NOMINAL_ROUND_S = 5.0

# (name, unit) of every end-to-end metric, in report order
END_TO_END = [
    ("setup_s", "s"),
    ("verdict_s", "s"),
    ("sim_steps_per_s", "steps/s"),
    ("query_p50_ms", "ms"),
    ("query_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
]


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_package() -> float:
    """Import numpy and haleform from ROOT/src here; return the median time
    the same imports take in SETUP_REPEATS fresh interpreters."""
    src = ROOT / "src"
    if not (src / "haleform" / "__init__.py").is_file():
        raise SystemExit(f"error: no haleform package under {src}")
    sys.path.insert(0, str(src))
    import numpy  # noqa: F401
    import haleform  # noqa: F401

    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
        "import numpy, haleform; print(time.perf_counter() - t0)"
    )
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", code, str(src)], capture_output=True, text=True, check=True
        )
        times.append(float(out.stdout))
    return statistics.median(times)


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def environment(args) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "haleform").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def percentile(values, pct: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), pct))


def set_up(workload, seed: int):
    """Build the context and warm up SETUP_REPEATS times; return (ctx, median s)."""
    import numpy as np

    times = []
    for k in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ctx = workload.setup()
        try:
            workload.warmup(ctx, np.random.default_rng([seed, 1, k]))
        except BaseException:
            workload.close(ctx)
            raise
        times.append(time.perf_counter() - t0)
        if k < SETUP_REPEATS - 1:
            workload.close(ctx)
    return ctx, statistics.median(times)


def end_to_end(workload, rec, import_s: float, setup_s: float) -> dict:
    """verdict_s, sim_steps_per_s and query_p50_ms take each operation at its
    slowest over the rounds; the tail is taken over every query as it ran."""
    slots = rec.slots()
    sims = [(s, n) for s, _, n in slots if n]
    return {
        "setup_s": import_s + setup_s,
        "verdict_s": rec.slowest_round_s(),
        "sim_steps_per_s": sum(n for _, n in sims) / sum(s for s, _ in sims),
        "query_p50_ms": statistics.median([s for s, q, _ in slots if q]) * 1e3,
        "query_tail_ms": percentile([q * 1e3 for q in rec.query_s()], workload.tail_pct),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def rounds_for(seconds: float) -> int:
    """Rounds in a run: a fixed count per --seconds, so every run with one
    seed times the same inputs, however fast the machine is."""
    return max(1, round(seconds / NOMINAL_ROUND_S))


def untraced(workload, ctx, args, import_s: float, setup_s: float):
    """End-to-end metrics from one untraced timed phase."""
    import workloads

    rec = workloads.Recorder()
    workloads.run_rounds(workload, ctx, rec, args.seed, rounds_for(args.seconds))
    values = end_to_end(workload, rec, import_s, setup_s)
    queries = rec.query_s()
    info = {
        "rounds": len(rec.rounds),
        "queries": len(queries),
        "query_tail_percentile": workload.tail_pct,
        "queries_beyond_tail": sum(q * 1e3 > values["query_tail_ms"] for q in queries),
        "sim_steps_per_round": sum(n for _, _, n in rec.slots()),
        "fit_refusals": rec.refusals,
    }
    return values, dict(END_TO_END), [rec], info


def traced(workload, ctx, args):
    """Per-layer metrics: half of the run's rounds untraced, then as many traced."""
    import tracing
    import workloads

    rounds = max(1, rounds_for(args.seconds) // 2)
    plain = workloads.Recorder()
    workloads.run_rounds(workload, ctx, plain, args.seed, rounds)
    log = tracing.SpanLog()
    rec = workloads.Recorder(log)
    patches = tracing.install(log)
    try:
        workloads.run_rounds(workload, ctx, rec, args.seed, rounds)
    finally:
        tracing.uninstall(patches)
    overhead = rec.slowest_round_s() / plain.slowest_round_s() - 1.0
    values = tracing.layer_metrics(log, len(rec.rounds), overhead)
    log.write(str(OUT / f"trace-{workload.name}.npz"))
    counted = (
        "integrate.calls",
        "integrate.steps",
        "functionals.v_per_derivative",
        "certify.integrations_per_converse",
        "certify.checked",
        "certify.inconclusive",
    )
    info = {
        "traced_rounds": len(rec.rounds),
        "spans": len(log),
        "deterministic_counts_round0": {key: values[key] for key in counted},
    }
    return values, dict(tracing.PER_LAYER), [plain, rec], info


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = import_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    print(json.dumps({"environment": environment(args)}))
    print(json.dumps({"workload": workload.name, "why": workload.why}))

    ctx, setup_s = set_up(workload, args.seed)
    try:
        if args.trace:
            values, units, recs, info = traced(workload, ctx, args)
        else:
            values, units, recs, info = untraced(workload, ctx, args, import_s, setup_s)
    finally:
        workload.close(ctx)
    print(json.dumps(info))

    failed = sum(r.failed for r in recs)
    for r in recs:
        for problem in r.failures:
            print(f"failure: {problem}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": sum(r.attempted for r in recs),
        "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
