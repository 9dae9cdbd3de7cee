"""The benchmark's workloads, built from a seed.

Three order sweeps through `run_sweep` (the paper's product: the root set one
start point reaches as the order sweeps a grid) and one seeded sequence of
single-shot `fracroots` calls through `cli.main`.

Why these four:
- zeta-sweep: target evaluation (the longdouble double sum) is about 68% of
  the time, so evaluator batching or caching shows here.
- ci-sweep: split between the pure-Python Neumaier sum (~42%) and the solver
  (~58%), with both exit paths (early NumericalFailure, 500-iteration runs).
- ex3-sweep: a 2-component system with a cheap target (~8%), so solver work
  (P entries, rounding, norms, finiteness checks) dominates; target changes
  should show almost nothing here.
- single-shot: the batch-of-one path that rebuilds the target on every call,
  and the only workload where special functions, the fracderiv quadrature
  and the validation suites do real work.  A batched sweep engine bypasses
  all of it, so such a change should leave this workload unchanged.
The Si sweep is left out: it runs the same evaluator shape and solver path as
ci-sweep at ~18 s a pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from fracroots import cli
from fracroots.solver import FpnConfig, RootRecord, SolveStatus
from fracroots.sweep import AlphaGrid, run_sweep
from fracroots.targets import make_target

import checks
import tracing

# Golden-ratio stride: seed 0 is the acceptance grid itself and successive
# seeds spread their shifts evenly over one step.  Seeds repeat their shift
# every SHIFTS seeds, so that the reference roots the seed code recovers on
# every grid a seed can draw are known (data/reference_roots.json).
_GOLDEN = 0.6180339887498949
SHIFTS = 16
DATA = Path(__file__).resolve().parent / "data"


def shift_index(seed: int) -> int:
    return seed % SHIFTS


def grid_shift(seed: int) -> float:
    """Fraction of a step by which `seed` shifts every sweep grid."""
    return (shift_index(seed) * _GOLDEN) % 1.0


def expected_roots(name: str, seed: int) -> set[str]:
    """The reference roots the seed code recovers on workload `name` with
    the inputs of `seed`, as recorded by record.py.  single-shot's orders do
    not depend on the seed, so its table has one entry."""
    table = json.loads((DATA / "reference_roots.json").read_text())[name]
    return set(table[shift_index(seed) % len(table)])


@dataclass(frozen=True)
class SweepSpec:
    target: str
    x0: str
    grids: tuple[tuple[float, float, float], ...]
    base_alpha: float


SWEEPS = {
    "zeta-sweep": SweepSpec("zeta-hasse", "0.5+31.51i", ((-1.2, 0.35, 0.005),), 0.5),
    "ci-sweep": SweepSpec("ci", "0.018", ((-1.2, 1.2, 0.002),), 0.5),
    "ex3-sweep": SweepSpec(
        "example3", "0.86,0.86", ((0.65, 1.3, 5e-4), (0.725, 0.732, 1e-5)), 0.7
    ),
}

# The acceptance suite's start points and grids; single-shot draws its
# orders from these, unshifted.
ACCEPTANCE = {
    "zeta-hasse": SWEEPS["zeta-sweep"],
    "ci": SWEEPS["ci-sweep"],
    "si": SweepSpec("si", "1.85", ((-0.9, 1.5, 0.002), (-0.85, -0.80, 2e-5)), 0.5),
    "example3": SWEEPS["ex3-sweep"],
}
STABILITY_XI = (-10, -20, -30, -40, -50, -60)
# |f| one 1e-12 step off the deep trivial zeros (acceptance criterion 6)
STABILITY_RANGES = {-40: (2.4e3, 9.6e3), -60: (2.6e21, 1.1e22)}
CALLS_PER_TARGET = 60
WORKLOADS = (*SWEEPS, "single-shot")


@dataclass
class Pass:
    """One timed pass: its wall time, the latency of each public call, one
    outcome per operation (a RootRecord per order, or a CliOutcome per CLI
    call) and, for a sweep, the unique roots its reports list."""

    seconds: float
    call_seconds: list[float]
    outcomes: list
    unique_roots: list = field(default_factory=list)


class SweepWorkload:
    """run_sweep over the workload's grids, shifted by the seed."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.spec = SWEEPS[name]
        shift = grid_shift(seed)
        self.grid_args = tuple(
            (lo + shift * step, hi + shift * step, step) for lo, hi, step in self.spec.grids
        )
        self.x0 = cli.parse_complex_vector(self.spec.x0)
        self.config = FpnConfig(alpha=self.spec.base_alpha)
        self.target = make_target(self.spec.target, k=checks.SERIES_K)
        self.grids = [AlphaGrid(*args) for args in self.grid_args]
        self.orders = [a for g in self.grids for a in g.values()]

    def setup_code(self) -> str:
        return (
            "from fracroots import AlphaGrid, make_target\n"
            f"make_target({self.spec.target!r}, k={checks.SERIES_K})\n"
            f"for args in {self.grid_args!r}:\n"
            "    AlphaGrid(*args).values()\n"
        )

    def run_pass(self, tracer=None) -> Pass:
        """One pass; a traced pass builds and wraps its own target, and puts a
        span around the build and each run_sweep call."""
        target = self.target
        if tracer:
            with tracer.span(tracing.BUILD):
                target = make_target(self.spec.target, k=checks.SERIES_K)
            target = tracer.wrap(target)
        records: list[RootRecord] = []
        uniques = []
        seconds = 0.0
        for grid in self.grids:
            with tracer.span("sweep.run_sweep") if tracer else contextlib.nullcontext():
                start = time.perf_counter()
                report = run_sweep(target, self.x0, grid, self.config)
                seconds += time.perf_counter() - start
            records.extend(report.records)
            uniques.extend(u.root for u in report.unique_roots)
        return Pass(seconds, [seconds], records, uniques)

    def check_all(self, first: Pass) -> list[list[str]]:
        problems = []
        for rec, alpha in zip(first.outcomes, self.orders):
            found = checks.record_problems(self.spec.target, rec)
            if rec.alpha != alpha:
                found.append(f"record for alpha {rec.alpha!r} at grid order {alpha!r}")
            problems.append(found)
        missing = abs(len(first.outcomes) - len(self.orders))
        mismatch = f"{len(first.outcomes)} records for {len(self.orders)} orders"
        return problems + [[mismatch]] * missing

    same = staticmethod(checks.same_record)

    def roots(self, first: Pass) -> list[tuple[str, np.ndarray]]:
        return [(self.spec.target, root) for root in first.unique_roots]

    def converged(self, first: Pass) -> list[tuple[str, np.ndarray]]:
        return [
            (self.spec.target, rec.root)
            for rec in first.outcomes
            if rec.status is SolveStatus.Converged
        ]

    def records(self, first: Pass) -> list[RootRecord]:
        return first.outcomes


@dataclass(frozen=True)
class CliCall:
    kind: str
    argv: tuple[str, ...]
    target: str | None = None
    alpha: float | None = None
    fmt: str | None = None
    xi: int | None = None


@dataclass(frozen=True)
class CliOutcome:
    code: int | None
    stdout: str
    error: str | None


def make_calls(seed: int) -> list[CliCall]:
    """The call sequence: for each target, one solve at the middle order of
    each of CALLS_PER_TARGET equal strata of its acceptance grids; stability
    at each STABILITY_XI; and one validate.  The seed draws each solve's
    output format and the order of the calls.

    The orders themselves do not depend on the seed.  Which root an order
    reaches, and so whether its solve takes 5 or 500 iterations, is chaotic
    in the order, so seeded orders would make the mix of fast and slow calls,
    and the roots the sequence can reach, vary from seed to seed by more
    than the benchmark's bounds.
    """
    rng = random.Random(seed)
    calls = []
    for name, spec in ACCEPTANCE.items():
        orders = sorted(a for args in spec.grids for a in AlphaGrid(*args).values())
        for i in range(CALLS_PER_TARGET):
            alpha = orders[(2 * i + 1) * len(orders) // (2 * CALLS_PER_TARGET)]
            fmt = rng.choice(sorted(checks.FORMATS))
            argv = ("solve", "--target", name, "--k", str(checks.SERIES_K),
                    "--x0", spec.x0, "--alpha", repr(alpha), "--format", fmt)
            calls.append(CliCall("solve", argv, name, alpha, fmt))
    calls.extend(
        CliCall("stability", ("stability", "--xi", str(xi)), xi=xi) for xi in STABILITY_XI
    )
    calls.append(CliCall("validate", ("validate",)))
    rng.shuffle(calls)
    return calls


def call_cli(argv) -> tuple[CliOutcome, float]:
    """One cli.main call with its output captured; returns it and its latency."""
    out = io.StringIO()
    err = io.StringIO()
    code = error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an escaped exception is a counted failure
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    if error is None and code not in (0, 2):
        error = err.getvalue().strip()
    return CliOutcome(code, out.getvalue(), error), elapsed


class SingleShotWorkload:
    name = "single-shot"

    def __init__(self, seed: int):
        self.calls = make_calls(seed)
        self.orders = [c.alpha for c in self.calls if c.kind == "solve"]

    def setup_code(self) -> str:
        return "import fracroots.cli\n"

    def run_pass(self, tracer=None) -> Pass:
        """One pass; a traced pass puts a span around each cli.main call,
        wraps the targets the CLI builds and records the arguments of the
        special functions."""
        outcomes = []
        latencies = []
        with contextlib.ExitStack() as stack:
            if tracer:
                stack.enter_context(tracer.wrapping_cli_targets())
                stack.enter_context(tracer.recording_specfun_args())
            for call in self.calls:
                with tracer.span("cli.main", call) if tracer else contextlib.nullcontext():
                    outcome, elapsed = call_cli(call.argv)
                outcomes.append(outcome)
                latencies.append(elapsed)
        return Pass(sum(latencies), latencies, outcomes)

    def parse_record(self, call: CliCall, outcome: CliOutcome) -> RootRecord | None:
        """The record a solve call emitted in its --format, if it parses."""
        _, _, payload = outcome.stdout.partition("\n")
        try:
            records = checks.read_text(call.fmt, payload)
        except (ValueError, KeyError):
            return None
        return records[0] if len(records) == 1 else None

    def check_pair(self, call: CliCall, outcome: CliOutcome) -> list[str]:
        label = " ".join(call.argv)
        if outcome.error is not None:
            return [f"{label}: {outcome.error}"]
        if call.kind == "validate":
            lines = outcome.stdout.splitlines()
            ok = outcome.code == 0 and len(lines) == 3 and all(": PASS" in ln for ln in lines)
            return [] if ok else [f"{label}: exit {outcome.code}, {outcome.stdout!r}"]
        if call.kind == "stability":
            return _stability_problems(label, call.xi, outcome)
        rec = self.parse_record(call, outcome)
        if rec is None:
            return [f"{label}: no parsable {call.fmt} record in {outcome.stdout!r}"]
        problems = checks.record_problems(call.target, rec)
        expected = 0 if rec.status.name == "Converged" else 2
        if outcome.code != expected:
            problems.append(f"{label}: exit {outcome.code} for {rec.status.name}")
        if rec.alpha != call.alpha:
            problems.append(f"{label}: record alpha {rec.alpha!r}")
        _, _, payload = outcome.stdout.partition("\n")
        if checks.write_text(call.fmt, [rec]) != payload:
            problems.append(f"{label}: re-serialised record differs from the CLI's {call.fmt}")
        return problems

    def check_all(self, first: Pass) -> list[list[str]]:
        return [self.check_pair(c, o) for c, o in zip(self.calls, first.outcomes)]

    @staticmethod
    def same(a: CliOutcome, b: CliOutcome) -> bool:
        return a == b

    def solved(self, first: Pass) -> list[tuple[CliCall, RootRecord]]:
        pairs = []
        for call, outcome in zip(self.calls, first.outcomes):
            if call.kind == "solve" and outcome.error is None:
                rec = self.parse_record(call, outcome)
                if rec is not None:
                    pairs.append((call, rec))
        return pairs

    def converged(self, first: Pass) -> list[tuple[str, np.ndarray]]:
        return [
            (call.target, rec.root)
            for call, rec in self.solved(first)
            if rec.status is SolveStatus.Converged
        ]

    roots = converged

    def records(self, first: Pass) -> list[RootRecord]:
        return [rec for _, rec in self.solved(first)]


def _stability_problems(label: str, xi: int, outcome: CliOutcome) -> list[str]:
    values = []
    for line in outcome.stdout.splitlines():
        _, _, text = line.partition("|f|=")
        try:
            values.append(float(text))
        except ValueError:
            return [f"{label}: unparsable line {line!r}"]
    if outcome.code != 0 or len(values) != 3:
        return [f"{label}: exit {outcome.code}, {outcome.stdout!r}"]
    left, center, right = values
    problems = []
    if center != 0.0:
        problems.append(f"{label}: |f| = {center!r} at the trivial zero itself")
    lo, hi = STABILITY_RANGES.get(xi, (0.0, math.inf))
    if not all(lo <= v <= hi and v > 0.0 for v in (left, right)):
        problems.append(f"{label}: off-zero |f| {left!r}, {right!r} outside ({lo}, {hi})")
    return problems


def reference_roots_found(wl, p: Pass) -> set[str]:
    """Labels of the reference roots that the roots of pass `p` recover."""
    return set().union(*(checks.reference_hits(name, [root]) for name, root in wl.roots(p)))


def make_workload(name: str, seed: int):
    if name == "single-shot":
        return SingleShotWorkload(seed)
    return SweepWorkload(name, seed)
