"""In-memory spans around the benchmark's calls into each layer, and the
per-layer metrics computed from them.

Spans are recorded only by the benchmark, at the public calls it makes:
each run_sweep or cli.main call, each target build and each target
evaluation (through a wrapping TargetFunction).  Layers that a span cannot
isolate from outside (the P matrix, rounding, the complex power kernel, csv
and jsonl records) are timed by replaying the iterates and records the
traced pass produced through their public functions.  The special functions
are timed on the arguments the library passes them in a single-shot pass
(recorded by record.py into data/specfun_args.json).  Layers a workload does
not exercise itself (quadrature, validation suites) are timed on fixed
seeded inputs, so every workload reports every layer.
"""

from __future__ import annotations

import contextlib
import json
import random
import statistics
import time
from collections import Counter
from pathlib import Path

import numpy as np

from fracroots import cli, fracderiv, targets, validation
from fracroots.errors import NumericalFailureError
from fracroots.fracderiv import complex_power, rl_deriv_via_quadrature
from fracroots.solver import FpnConfig, SolveStatus, build_p_matrix, round_iterate
from fracroots.specfun import incomplete_beta_regularized, log_gamma_complex
from fracroots.targets import TargetFunction

import checks

EVAL = "targets.evaluate"
BUILD = "targets.build"
REPLAY_POINTS = 2000
REPEATS = 5
# the special functions' short argument lists are replayed until each timing
# makes this many calls
MIN_CALLS = 2000
SPECFUN_ARGS = Path(__file__).resolve().parent / "data" / "specfun_args.json"
# the special functions timed, and the library modules that call them
SPECFUN_CALLERS = {"log_gamma_complex": targets, "incomplete_beta_regularized": fracderiv}


class Tracer:
    """Spans as [name, parent index, start ns, end ns, meta], kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.points: list[np.ndarray] = []
        self.specfun_args: dict[str, list[list[float]]] = {n: [] for n in SPECFUN_CALLERS}
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, meta=None):
        rec = [name, self._stack[-1] if self._stack else -1, time.perf_counter_ns(), 0, meta]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[3] = time.perf_counter_ns()
            self._stack.pop()

    def wrap(self, target: TargetFunction) -> TargetFunction:
        """The same target with a span and a copy of the point per evaluation."""
        inner = target.evaluate
        spans, stack, points = self.spans, self._stack, self.points

        def evaluate(x):
            rec = [EVAL, stack[-1] if stack else -1, time.perf_counter_ns(), 0, None]
            spans.append(rec)
            try:
                return inner(x)
            finally:
                rec[3] = time.perf_counter_ns()
                points.append(np.array(x, dtype=np.complex128))

        return TargetFunction(target.name, target.dimension, evaluate, target.truncation_k)

    @contextlib.contextmanager
    def wrapping_cli_targets(self):
        """Time every target the CLI builds and wrap it for evaluation spans."""
        originals = {"make_target": cli.make_target,
                     "zeta_functional_target": cli.zeta_functional_target}

        def traced(factory):
            def build(*args, **kwargs):
                with self.span(BUILD):
                    target = factory(*args, **kwargs)
                return self.wrap(target)

            return build

        try:
            for name, factory in originals.items():
                setattr(cli, name, traced(factory))
            yield
        finally:
            for name, factory in originals.items():
                setattr(cli, name, factory)

    @contextlib.contextmanager
    def recording_specfun_args(self):
        """Record the arguments of every special-function call the library
        makes, as lists of floats (a complex as its real and imaginary part)."""
        originals = {name: getattr(module, name) for name, module in SPECFUN_CALLERS.items()}

        def recorded(name, fn):
            calls = self.specfun_args[name]

            def call(*args):
                calls.append([p for a in args for p in _floats(a)])
                return fn(*args)

            return call

        try:
            for name, module in SPECFUN_CALLERS.items():
                setattr(module, name, recorded(name, originals[name]))
            yield
        finally:
            for name, module in SPECFUN_CALLERS.items():
                setattr(module, name, originals[name])

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for name, parent, start, end, meta in self.spans:
                fh.write(json.dumps([name, parent, start, end, _meta_text(meta)]) + "\n")


def _floats(arg) -> tuple[float, ...]:
    if isinstance(arg, complex):
        return (arg.real, arg.imag)
    return (float(arg),)


def shipped_specfun_args() -> dict[str, list[list[float]]]:
    return json.loads(SPECFUN_ARGS.read_text())


def _meta_text(meta) -> str | None:
    argv = getattr(meta, "argv", None)
    return " ".join(argv) if argv else None


def _per_call(fn, items) -> float:
    """Seconds per item of `fn` over `items`, median of REPEATS timings."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for item in items:
            fn(item)
        times.append((time.perf_counter() - start) / len(items))
    return statistics.median(times)


def _repeated(items: list) -> list:
    return items * -(-MIN_CALLS // len(items))


def _p_matrix(pair):
    x, config = pair
    try:
        build_p_matrix(x, config)
    except NumericalFailureError:
        pass


def replay_metrics(points, orders, records, seed: int) -> dict[str, float]:
    """Micro-timings replayed on a sample of the traced pass's iterates and
    on its records."""
    rng = random.Random(seed)
    sample = rng.sample(points, min(REPLAY_POINTS, len(points)))
    configs = [FpnConfig(alpha=a) for a in rng.choices(orders, k=len(sample))]
    powers = [
        (complex(z), -c.alpha) for x, c in zip(sample, configs) for z in x if complex(z) != 0
    ]
    out = {
        "solver.p_matrix_us": 1e6 * _per_call(_p_matrix, list(zip(sample, configs))),
        "solver.round_us": 1e6 * _per_call(lambda x: round_iterate(x, 5), sample),
        "fracderiv.complex_power_us": 1e6 * _per_call(lambda p: complex_power(*p), powers),
    }
    for fmt in checks.FORMATS:
        text = checks.write_text(fmt, records)
        out[f"cli.{fmt}_write_us"] = 1e6 * _per_call(
            lambda r: checks.write_text(fmt, r), [records]) / len(records)
        out[f"cli.{fmt}_read_us"] = 1e6 * _per_call(
            lambda t: checks.read_text(fmt, t), [text]) / len(records)
    return out


def fixed_layer_metrics(seed: int) -> dict[str, float]:
    """The special functions on their shipped arguments, and the quadrature
    and validation suites on seeded inputs."""
    args = shipped_specfun_args()
    gammas = _repeated([complex(re, im) for re, im in args["log_gamma_complex"]])
    betas = _repeated([tuple(a) for a in args["incomplete_beta_regularized"]])
    rng = random.Random(seed)
    quads = []
    while len(quads) < 20:
        mu, alpha, x = rng.uniform(-0.5, 3.0), rng.uniform(-2.0, 2.0), rng.uniform(0.1, 5.0)
        if abs(alpha - round(alpha)) >= 0.05:
            quads.append((mu, alpha, x))

    def quadrature(case):
        mu, alpha, x = case
        rl_deriv_via_quadrature(lambda t: t ** mu if t > 0.0 else 0.0, 0.0, x, alpha)

    out = {
        "fracderiv.quadrature_ms": 1e3 * _per_call(quadrature, quads),
        "specfun.log_gamma_us": 1e6 * _per_call(log_gamma_complex, gammas),
        "specfun.incomplete_beta_us": 1e6 * _per_call(
            lambda a: incomplete_beta_regularized(*a), betas),
    }
    for name in validation.SUITES:
        out[f"validation.{name}_ms"] = 1e3 * _per_call(
            lambda n: validation.run_suites([n]), [name])
    return out


def span_metrics(tracer: Tracer, records, distinct_roots: int,
                 solve_calls: set[int]) -> dict[str, float]:
    """Counts and self times from the spans of one traced pass.

    `solve_calls` are the indices of the call spans that solve (every
    run_sweep call, and the cli.main calls of `fracroots solve`).
    call.tail_ms is the median time from such a call's last target
    evaluation to its return: on a sweep the last solve's bookkeeping,
    run_sweep's dedup and its report; on single-shot the last solve's
    bookkeeping and the CLI's output.
    """
    spans = tracer.spans
    dur = [(s[3] - s[2]) * 1e-9 for s in spans]
    calls = [i for i, s in enumerate(spans) if s[1] == -1 and s[0] != BUILD]
    evals = [i for i, s in enumerate(spans) if s[0] == EVAL]
    builds = [i for i, s in enumerate(spans) if s[0] == BUILD]
    child_time = Counter()
    last_eval_end: dict[int, int] = {}
    for i in evals + builds:
        child_time[spans[i][1]] += dur[i]
    for i in evals:
        parent = spans[i][1]
        last_eval_end[parent] = max(last_eval_end.get(parent, 0), spans[i][3])

    eval_total = sum(dur[i] for i in evals)
    iterations = sum(r.iterations for r in records)
    statuses = Counter(r.status for r in records)
    converged = statuses[SolveStatus.Converged]
    wasted = sum(r.iterations for r in records if r.status is not SolveStatus.Converged)
    tails = [(spans[i][3] - last_eval_end[i]) * 1e-6 for i in solve_calls if i in last_eval_end]
    solve_self = sum(dur[i] - child_time[i] for i in solve_calls)

    out = {
        "targets.evals": len(evals),
        "targets.eval_us": 1e6 * eval_total / len(evals),
        "targets.share": eval_total / sum(dur[i] for i in calls),
        "targets.build_ms": 1e3 * statistics.mean(dur[i] for i in builds),
        "solver.iterations": iterations,
        "solver.self_us_per_iteration": 1e6 * solve_self / iterations,
        "solver.converged_share": converged / len(records),
        "solver.wasted_iteration_share": wasted / iterations,
        "solver.solves": len(records),
        "solver.distinct_roots": distinct_roots,
        "call.tail_ms": statistics.median(tails),
    }
    for status in SolveStatus:
        out[f"solver.status.{status.name}"] = statuses[status]
    return out


def solve_call_spans(tracer: Tracer) -> set[int]:
    return {
        i for i, s in enumerate(tracer.spans)
        if s[1] == -1 and (s[0] == "sweep.run_sweep" or getattr(s[4], "kind", None) == "solve")
    }


def solve_points(tracer: Tracer, solve_calls: set[int]) -> list[np.ndarray]:
    """The points evaluated inside solving calls: the solver's iterates."""
    evals = [s for s in tracer.spans if s[0] == EVAL]
    return [pt for s, pt in zip(evals, tracer.points) if s[1] in solve_calls]


LAYER_METRICS = {
    "targets.evals": "count",
    "targets.eval_us": "us",
    "targets.share": "ratio",
    "targets.build_ms": "ms",
    "solver.iterations": "count",
    "solver.self_us_per_iteration": "us",
    "solver.p_matrix_us": "us",
    "solver.round_us": "us",
    "solver.converged_share": "ratio",
    "solver.wasted_iteration_share": "ratio",
    **{f"solver.status.{s.name}": "count" for s in SolveStatus},
    "fracderiv.complex_power_us": "us",
    "fracderiv.quadrature_ms": "ms",
    "specfun.log_gamma_us": "us",
    "specfun.incomplete_beta_us": "us",
    "solver.solves": "count",
    "solver.distinct_roots": "count",
    "call.tail_ms": "ms",
    **{f"cli.{f}_{op}_us": "us" for f in ("csv", "jsonl") for op in ("write", "read")},
    **{f"validation.{name}_ms": "ms" for name in validation.SUITES},
    "trace.overhead_share": "ratio",
}


def overhead_share(traced_s: float, untraced_s: float) -> float:
    """Traced wall time over untraced, minus one."""
    return traced_s / untraced_s - 1.0
