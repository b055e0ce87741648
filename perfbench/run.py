"""zeno-qfi benchmark: one seeded workload per process.

    python3 perfbench/run.py --workload trajectory --seed 1 --seconds 35 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory.  Rounds of the workload's operations repeat until ``--seconds``
have passed (at least one round; two with ``--trace 1``).  Human-readable
lines come first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 7
TRACED_ROUNDS = 3  # cap on traced rounds, which keeps the span list small
NPROC = len(os.sched_getaffinity(0))
# One BLAS thread: with two on a 2-core machine the idle worker spins and
# competes with the main thread, which tripled CPU time in `trajectory` and
# doubled the run-to-run spread in `cli`.  exact_qfi_s is about 3.2 s with
# one thread and 2.3 s with two.
BLAS_THREADS = 1

# glibc's malloc moves its mmap threshold with the allocation history, so
# whether a 1 MiB temporary costs 256 fresh page faults differed from run to
# run (0.4M to 1.6M minor faults and 3 to 5 s for one N = 8 trajectory).
# Fixed thresholds keep freed memory in the heap; page-fault cost is then
# excluded from every timing.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 32 << 20  # glibc's largest allowed value
TRIM_THRESHOLD = 1 << 30


def pin_environment() -> str:
    """Fix the BLAS thread count and the malloc thresholds; both must be set
    before numpy is first imported.  Returns the allocator setting."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except AttributeError:
        return "default (no mallopt)"
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    if mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) and mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD):
        return f"glibc mmap_threshold={MMAP_THRESHOLD} trim_threshold={TRIM_THRESHOLD}"
    return "default (mallopt refused)"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("trajectory", "channel-qfi", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="only import the package and build the inputs, then exit",
    )
    return parser.parse_args(argv)


def import_workloads():
    if not (SRC / "zeno_qfi" / "__init__.py").is_file():
        sys.exit(f"zeno_qfi sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads

    return workloads


def tail(samples: list[float]) -> tuple[float, float] | None:
    """Highest of p50/p90/p99 with at least ten samples beyond it."""
    ordered = sorted(samples)
    best = None
    for p in (50, 90, 99):
        if len(ordered) * (100 - p) / 100 >= 10:
            best = (p, ordered[int(len(ordered) * p / 100)])
    return best


def describe(label: str, values: list[float]) -> str:
    if not values:
        return f"{label}: no successful samples"
    line = f"{label}: median {statistics.median(values):.4f} s, n={len(values)}"
    pct = tail(values)
    return line + (f", p{pct[0]} {pct[1]:.4f} s" if pct else ", no percentile with 10 samples beyond")


def environment(allocator: str) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "zeno_qfi").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    git_sha = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        git_sha = done.stdout.strip() or git_sha
    return {
        "blas_threads": BLAS_THREADS,
        "allocator": allocator,
        "nproc": NPROC,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest()[:16],
    }


def probe_setup(args) -> float:
    """Wall time of a fresh process that imports the package and builds the
    workload's inputs, then exits without tearing down."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0",
    ]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, capture_output=True, timeout=120)
    elapsed = time.perf_counter() - t0
    if done.returncode != 0:
        sys.exit(f"set-up probe failed: {done.stderr.decode(errors='replace')}")
    return elapsed


def measure(ops, seconds, tracer):
    """Run rounds until ``seconds`` have passed.  With a tracer, rounds
    alternate traced and untraced (traced first, at most TRACED_ROUNDS of
    them).  Returns untraced and traced samples per slot, the op ids of
    each slot's traced calls, the failures and the number of calls made."""
    untraced = {op.slot: [] for op in ops}
    traced = {op.slot: [] for op in ops}
    traced_ids = {op.slot: [] for op in ops}
    calls = {op.slot: 0 for op in ops}
    failures = []
    op_id = 0
    rounds = 0
    start = time.perf_counter()
    while rounds < (2 if tracer else 1) or time.perf_counter() - start < seconds:
        tracing = tracer is not None and rounds % 2 == 0 and rounds // 2 < TRACED_ROUNDS
        for op in ops:
            for _ in range(op.repeat):
                k = calls[op.slot]
                if tracing:
                    tracer.install()
                t0 = time.perf_counter()
                try:
                    if tracing:
                        result = tracer.root(f"bench.{op.slot}", op_id, lambda: op.run(k))
                    else:
                        result = op.run(k)
                    error = None
                except Exception as exc:  # a failed operation is counted, not fatal
                    result, error = None, f"{type(exc).__name__}: {exc}"
                elapsed = time.perf_counter() - t0
                if tracing:
                    tracer.uninstall()
                if error is None:
                    try:
                        error = op.check(k, result)
                    except Exception as exc:
                        error = f"check raised {type(exc).__name__}: {exc}"
                if error is None:
                    (traced if tracing else untraced)[op.slot].append(elapsed)
                    if tracing:
                        traced_ids[op.slot].append(op_id)
                else:
                    failures.append(f"{op.name} call {k}: {error}")
                calls[op.slot] += 1
                op_id += 1
        rounds += 1
    return untraced, traced, traced_ids, failures, op_id


def layer_metrics(tracer, ops, traced, untraced, traced_ids) -> dict:
    """Per-layer metrics per round: a slot's values averaged over its traced
    calls, times its calls per round, summed over the slots."""
    from spans import COUNTER_NAMES, SPAN_NAMES

    totals = tracer.layer_totals()

    def per_round(value_of) -> float:
        return sum(
            op.repeat * statistics.fmean(value_of(i) for i in traced_ids[op.slot])
            for op in ops
            if traced_ids[op.slot]
        )

    metrics = {}
    for name in SPAN_NAMES:
        for column, suffix, unit in ((0, "calls", "count"), (1, "busy_s", "s"), (2, "self_s", "s")):
            metrics[f"{name}.{suffix}"] = (per_round(lambda i: totals[i][name][column]), unit)
    for counter in COUNTER_NAMES:
        metrics[counter] = (per_round(lambda i: tracer.counters[i][counter]), "count")
    metrics["trace.spans"] = (
        per_round(lambda i: sum(row[0] for row in totals[i].values())),
        "count",
    )
    metrics["trace.overhead_s"] = (
        sum(
            op.repeat * (statistics.median(traced[op.slot]) - statistics.median(untraced[op.slot]))
            for op in ops
            if traced[op.slot] and untraced[op.slot]
        ),
        "s",
    )
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    t_start = time.perf_counter()
    allocator = pin_environment()
    workloads = import_workloads()
    if args.setup_probe:
        workloads.WORKLOADS[args.workload](args.seed, str(OUT))
        os._exit(0)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp_dir:
        ops = workloads.WORKLOADS[args.workload](args.seed, tmp_dir)
        own_setup = time.perf_counter() - t_start
        workloads.warm_up(args.workload)

        tracer = None
        setups = []
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
        else:
            setups = [probe_setup(args) for _ in range(SETUP_PROBES)]
        untraced, traced, traced_ids, failures, attempted = measure(ops, args.seconds, tracer)

    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    env = environment(allocator)
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    if setups:
        print(f"setup_s: median {statistics.median(setups):.4f} s over {len(setups)} fresh processes"
              f" (this process: {own_setup:.4f} s)")
    samples = traced if args.trace else untraced
    for op in ops:
        print(describe(f"{op.slot} [{op.name}]", samples[op.slot]))
    for name, slots in workloads.NAMED[args.workload]:
        print(describe(name, [sum(row) for row in zip(*(samples[slot] for slot in slots))]))
    print(f"failed_frac: {len(failures) / attempted:g} ({len(failures)}/{attempted})")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"peak_rss_mb: {peak_rss_mb:.1f} MB")

    if tracer is not None:
        metrics = layer_metrics(tracer, ops, traced, untraced, traced_ids)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(path)
        print(f"{len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
        for name, (value, unit) in metrics.items():
            print(f"  {name} = {value:.6g} {unit}")
    else:
        metrics = {"setup_s": (statistics.median(setups), "s")}
        for op in ops:
            values = untraced[op.slot]
            metrics[op.slot] = (statistics.median(values) if values else None, "s")
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
