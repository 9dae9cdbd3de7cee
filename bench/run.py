#!/usr/bin/env python3
"""fracroots benchmark: one workload per run.

    python3 bench/run.py --workload zeta-sweep --seed 0 --seconds 25 --trace 0

Workloads: zeta-sweep, ci-sweep, ex3-sweep, single-shot (see workloads.py for
what each stresses).  Runs from the repository root against the sources in
src/, in one process with BLAS/OpenMP pinned to one thread.

With --trace 0 the run repeats timed passes for about --seconds seconds, and
at least twice, and reports the end-to-end metrics:
  wall_s        median time of one pass: the sweep's grids to their root
                set, or the single-shot call sequence
  call_ms_p50   latency of one public call (its median over the passes),
  call_ms_p90   median and 90th percentile over the calls of a pass: each
                cli.main call on single-shot.  On a sweep the pass is the
                only call, so both equal wall_s in ms there.
  setup_s       fresh interpreter to ready to solve: import fracroots,
                build the target and the grid (median of SETUP_REPEATS)
  roots_kept    share of the acceptance-suite reference roots that the seed
                code recovers on these inputs (data/reference_roots.json)
                which the pass still recovers
  peak_rss_mib  peak resident memory of the benchmark process after the
                passes, before any checking
With --trace 1 it runs one untraced and one traced pass and reports the
per-layer metrics of tracing.py; the spans go to .bench_trace/<workload>.jsonl.

Every run checks its outputs: each converged root against the 50-digit
oracle, exact csv/jsonl round trips of every record, CLI exit codes, and that
repeated passes give bit-identical results.  The last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}; the lines before it
describe the machine and the run.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 60
# longdouble mantissa bits of x87 extended precision; fewer means the zeta
# double sum runs in plain double precision
FULL_NMANT = 63


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def machine_block() -> dict:
    import numpy as np
    import scipy

    nmant = int(np.finfo(np.longdouble).nmant)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": importlib.metadata.version("mpmath"),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "longdouble_nmant": nmant,
        "zeta_precision_degraded": nmant < FULL_NMANT,
    }


def measure_setup(code: str) -> float:
    """Median seconds from spawning a fresh interpreter until it has run
    `code`, read on the system-wide monotonic clock in both processes."""
    child = (
        f"import sys, time\nsys.path.insert(0, {str(SRC)!r})\nimport fracroots\n{code}"
        "print(time.clock_gettime_ns(time.CLOCK_MONOTONIC))\n"
    )
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        proc = subprocess.run([sys.executable, "-c", child], cwd=ROOT, capture_output=True,
                              text=True, timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed ({proc.returncode}): {proc.stderr.strip()}")
        times.append((int(proc.stdout) - start) * 1e-9)
    return statistics.median(times)


def tally_passes(wl, passes, tally) -> None:
    """Check the first pass in full and every later pass against it."""
    first = passes[0]
    expected = len(first.outcomes)
    for problems in wl.check_all(first):
        tally.add(problems)
    for later in passes[1:]:
        if len(later.outcomes) != expected:
            tally.fail_all(expected, "a later pass has a different number of outcomes")
            continue
        for a, b in zip(first.outcomes, later.outcomes):
            tally.add([] if wl.same(a, b) else ["result differs from the first pass"])


def counts(wl, first) -> dict:
    from checks import distinct_roots

    records = wl.records(first)
    return {
        "orders": len(records),
        "iterations": sum(r.iterations for r in records),
        "statuses": dict(Counter(r.status.name for r in records)),
        "distinct_roots": distinct_roots(wl.converged(first)),
        "root_set": sorted({
            name + ":" + ",".join(f"{z.real:.6f}{z.imag:+.6f}i" for z in root)
            for name, root in wl.roots(first)
        }),
    }


def run_timed(wl, args, tally, info) -> dict:
    from checks import percentile, samples_beyond
    from workloads import expected_roots, reference_roots_found

    setup_s = measure_setup(wl.setup_code())
    passes = []
    start = time.perf_counter()
    # at least two passes, so that every run checks that a repeat pass is
    # bit-identical to the first
    while True:
        passes.append(wl.run_pass())
        if len(passes) >= 2 and time.perf_counter() - start + passes[-1].seconds > args.seconds:
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tally_passes(wl, passes, tally)

    first = passes[0]
    hits = reference_roots_found(wl, first)
    expected = expected_roots(wl.name, args.seed)
    # each call's median latency over the passes, so that one slow pass moves
    # the percentiles no more than it moves wall_s
    calls_ms = [1e3 * statistics.median(c) for c in zip(*(p.call_seconds for p in passes))]
    info.update(
        passes=len(passes),
        pass_seconds=[p.seconds for p in passes],
        calls=len(calls_ms),
        calls_beyond_p90=samples_beyond(len(calls_ms), 90),
        roots=sorted(hits),
        roots_lost=sorted(expected - hits),
        roots_new=sorted(hits - expected),
        **counts(wl, first),
    )
    return {
        "wall_s": (statistics.median(p.seconds for p in passes), "s"),
        "call_ms_p50": (percentile(calls_ms, 50), "ms"),
        "call_ms_p90": (percentile(calls_ms, 90), "ms"),
        "setup_s": (setup_s, "s"),
        "roots_kept": (len(hits & expected) / len(expected), "ratio"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
    }


def run_traced(wl, args, tally, info) -> dict:
    import checks
    import tracing

    untraced = wl.run_pass()
    tracer = tracing.Tracer()
    traced = wl.run_pass(tracer)
    tally_passes(wl, [untraced, traced], tally)

    solve_calls = tracing.solve_call_spans(tracer)
    metrics = tracing.span_metrics(tracer, wl.records(untraced),
                                   checks.distinct_roots(wl.converged(untraced)), solve_calls)
    metrics.update(tracing.replay_metrics(tracing.solve_points(tracer, solve_calls), wl.orders,
                                        wl.records(untraced), args.seed))
    metrics.update(tracing.fixed_layer_metrics(args.seed))
    metrics["trace.overhead_share"] = tracing.overhead_share(traced.seconds, untraced.seconds)
    spans_path = ROOT / ".bench_trace" / f"{wl.name}.jsonl"
    tracer.write(spans_path)
    info.update(untraced_s=untraced.seconds, traced_s=traced.seconds, spans=str(spans_path),
                **counts(wl, untraced))
    if wl.name == "single-shot":
        # whether the library still makes the special-function calls that
        # traced runs replay (record.py specfun records them again)
        shipped = tracing.shipped_specfun_args()
        info["specfun_args_as_shipped"] = all(
            sorted(calls) == shipped[name] for name, calls in tracer.specfun_args.items())
    return {name: (metrics[name], unit) for name, unit in tracing.LAYER_METRICS.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fracroots" / "__init__.py").is_file():
        print(f"bench: no fracroots sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    import checks
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"known: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    machine = machine_block()
    print("machine " + json.dumps(machine))
    uses_zeta = args.workload in ("zeta-sweep", "single-shot")
    if uses_zeta and machine["zeta_precision_degraded"]:
        print(f"bench: WARNING longdouble has {machine['longdouble_nmant']} mantissa bits "
              f"(< {FULL_NMANT}); zeta-hasse results run at reduced precision", file=sys.stderr)

    wl = workloads.make_workload(args.workload, args.seed)
    tally = checks.Tally()
    info = {"workload": args.workload, "seed": args.seed,
            "grid_shift": workloads.grid_shift(args.seed),
            "zeta_precision_degraded": uses_zeta and machine["zeta_precision_degraded"]}
    run = run_traced if args.trace else run_timed
    metrics = run(wl, args, tally, info)
    info.update(attempted=tally.attempted, failed=tally.failed, error_share=tally.error_share,
                failures=tally.reasons[:10])
    print("run " + json.dumps(info))
    for reason in tally.reasons[:10]:
        print(f"bench: FAILED {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
