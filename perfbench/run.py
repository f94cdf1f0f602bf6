#!/usr/bin/env python3
"""Benchmark of the quantrel library: one closed-loop client in one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from `src/`
of that checkout and nothing else.  Workloads are restricted_sweep,
exhaustive_join and law_check (workloads.py says what each op does,
README.md why each was chosen).  The client sends its next op only when
the previous one has returned, and stops at the first cycle boundary
after --seconds (for exhaustive_join, the first boundary of a whole pass
over its cases).  ops_per_s is the median over cycles of ops per busy
second, which keeps it steady on a machine whose speed drifts.

A run prints a header (Python version, nproc, commit, seed), then one
"name: value unit" line per metric, and as its last line one JSON
object with the keys correct, attempted, failed and metrics.

--trace 0 gives the end-to-end metrics.  Set-up time is measured from
outside: the script starts itself with --setup-only several times and
reports the median wall time of those processes, which covers
interpreter start-up, `import quantrel`, lexicon loading and input
generation.

--trace 1 gives the per-layer metrics: it runs whole cycles untraced
for half of --seconds, then the same ops again with spans installed
(tracing.py), and reports per-op span totals and the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("restricted_sweep", "exhaustive_join", "law_check")
SETUP_PROBES = 9
# Candidate percentiles for op_tail_ms; the highest one that leaves at
# least TAIL_BEYOND samples above it is reported.
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)
TAIL_BEYOND = 10
SHOWN_FAILURES = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def import_quantrel():
    """Import the package from this checkout's src/, or exit non-zero."""
    package = SRC / "quantrel"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no quantrel sources at {package}")
    sys.path.insert(0, str(SRC))
    import quantrel
    if Path(quantrel.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported quantrel from {quantrel.__file__}, "
                         f"not from {package}")


def set_up(args):
    import workloads
    workload = workloads.build(args.workload, args.seed, workloads.load_reference())
    # Keep the collector from rescanning the set-up's objects (templates,
    # models, reference table) during timed ops: that cost belongs to the
    # harness and lands on whichever op triggers a full collection.
    gc.collect()
    gc.freeze()
    return workload


# -- header -----------------------------------------------------------------


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "quantrel").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def print_header(args) -> None:
    print(f"python: {platform.python_version()}")
    print(f"nproc: {len(os.sched_getaffinity(0))}")
    print(f"commit: {commit()}")
    print(f"source_sha256: {source_digest()}")
    print(f"workload: {args.workload}")
    print(f"seed: {args.seed}")
    print(f"seconds: {args.seconds:g}")
    print(f"trace: {args.trace}")


# -- measurement --------------------------------------------------------------


class Measured:
    def __init__(self):
        self.latencies = []
        self.failures = []
        self.cycle_rates = []      # ops per busy second, one per cycle

    @property
    def cycles(self) -> int:
        return len(self.cycle_rates)

    @property
    def busy(self) -> float:
        return sum(self.latencies)


def run_cycles(workload, seconds=None, cycles=None) -> Measured:
    """Run whole cycles of ops: `cycles` of them, or until `seconds` pass.

    A timed run stops at the first multiple of `workload.period` cycles
    after `seconds`.
    """
    m = Measured()
    start = time.perf_counter()
    while True:
        first = len(m.latencies)
        for op in workload.cycle(m.cycles):
            t0 = time.perf_counter()
            try:
                out = op.call()
            except Exception as exc:  # a failed op is counted, not fatal
                m.latencies.append(time.perf_counter() - t0)
                m.failures.append(f"{op.slot}: {type(exc).__name__}: {exc}")
                continue
            m.latencies.append(time.perf_counter() - t0)
            problem = op.check(out)
            if problem is not None:
                m.failures.append(problem)
        done = m.latencies[first:]
        m.cycle_rates.append(len(done) / sum(done))
        if cycles is not None:
            if m.cycles >= cycles:
                return m
        elif (m.cycles % workload.period == 0
              and time.perf_counter() - start >= seconds):
            return m


def nearest_rank(sorted_values, p: float) -> float:
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(n: int):
    """Highest ladder percentile with at least TAIL_BEYOND samples above it."""
    best = None
    for p in TAIL_LADDER:
        if n - math.ceil(p / 100 * n) >= TAIL_BEYOND:
            best = p
    return best


def measure_setup(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_PROBES):
        # No timeout: with one, subprocess polls the child with sleeps of
        # up to 50 ms, which would round every probe up to that grain.
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def end_to_end_metrics(m: Measured, setup_s: float) -> dict:
    """name -> (value, unit, note) for an untraced run."""
    lat = sorted(m.latencies)
    n = len(lat)
    tail_p = tail_percentile(n)
    tail = lat[-1] if tail_p is None else nearest_rank(lat, tail_p)
    tail_label = "max" if tail_p is None else f"p{tail_p:g}"
    return {
        "setup_s": (setup_s, "s", ""),
        "ops_per_s": (statistics.median(m.cycle_rates), "1/s", ""),
        "op_p50_ms": (nearest_rank(lat, 50) * 1e3, "ms", ""),
        "op_tail_ms": (tail * 1e3, "ms", f" ({tail_label}, n={n})"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", ""),
    }


def traced_metrics(build, seconds: float):
    """Set up (spans on), run untraced, rerun the same ops traced.

    Returns (metrics, untraced run, traced run, tracer); metrics maps
    name -> (value, unit, note), with value None for an absent target.
    """
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        workload = build()
    finally:
        tracer.uninstall()
    setup_stats, setup_edges = dict(tracer.stats), dict(tracer.edges)
    tracer.reset()

    plain = run_cycles(workload, seconds=seconds)
    tracer.install()
    try:
        spanned = run_cycles(workload, cycles=plain.cycles)
    finally:
        tracer.uninstall()
    ops = len(spanned.latencies)
    absent = set(tracer.absent)
    metrics = {}
    for metric in tracing.SETUP_METRICS:
        value = None if metric.target in absent else metric.value(setup_stats, setup_edges, 1)
        metrics[metric.name] = (value, metric.unit, " (set-up)")
    for metric in tracing.OP_METRICS:
        value = None if metric.target in absent else metric.value(tracer.stats, tracer.edges, ops)
        metrics[metric.name] = (value, metric.unit, "")
    name, unit, _ = tracing.OVERHEAD_METRIC
    metrics[name] = (spanned.busy / plain.busy - 1.0, unit, "")
    return metrics, plain, spanned, tracer


def emit(metrics, attempted: int, failures) -> None:
    for name, (value, unit, note) in metrics.items():
        shown = "absent" if value is None else f"{value:.6g} {unit}"
        print(f"{name}: {shown}{note}")
    for problem in failures[:SHOWN_FAILURES]:
        print(f"failure: {problem}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": 0.0 if value is None else value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))


def end_to_end(args) -> None:
    setup_s = measure_setup(args)
    m = run_cycles(set_up(args), seconds=args.seconds)
    n = len(m.latencies)
    print(f"cycles: {m.cycles}")
    print(f"ops: {n}")
    print(f"error_rate: {len(m.failures) / n:.6g} ratio")
    emit(end_to_end_metrics(m, setup_s), n, m.failures)


def traced(args) -> None:
    metrics, plain, spanned, tracer = traced_metrics(lambda: set_up(args), args.seconds / 2)
    ops = len(spanned.latencies)
    print(f"cycles: {spanned.cycles}")
    print(f"ops: {ops}")
    for (parent, child), (calls, busy) in sorted(tracer.edges.items(),
                                                 key=lambda kv: -kv[1][1]):
        print(f"span: {child} < {parent} {busy / ops:.6g} s/op {calls / ops:.6g} calls/op")
    emit(metrics, len(plain.latencies) + ops, plain.failures + spanned.failures)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_quantrel()
    if args.setup_only:
        set_up(args)
        return 0
    print_header(args)
    if args.trace:
        traced(args)
    else:
        end_to_end(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
