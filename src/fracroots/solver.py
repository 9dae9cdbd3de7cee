"""Pseudo-Newton iteration driven by fractional derivatives of constants.

The update is x_{i+1} = Rnd_m(x_i - P(x_i) f(x_i)) where P is diagonal with
entries z^(-beta)/Gamma(1-beta) + epsilon and beta switches from alpha to 1
at z = 0.  One solver instance per fractional order; a sweep over orders
finds many roots from one initial condition.
"""

from __future__ import annotations

import cmath
import enum
import itertools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    TARGET_FAILURES,
    DomainError,
    InsufficientDataError,
    NumericalFailureError,
)
from .fracderiv import INTEGER_GUARD, recip_gamma

if TYPE_CHECKING:
    from .targets import TargetFunction

__all__ = [
    "FpnConfig",
    "IterationTrace",
    "RootRecord",
    "SolveStatus",
    "build_p_matrix",
    "round_iterate",
    "fpn_step",
    "fpn_solve",
    "estimate_convergence_order",
]


class SolveStatus(enum.Enum):
    Converged = "Converged"
    MaxIterations = "MaxIterations"
    Diverged = "Diverged"
    NumericalFailure = "NumericalFailure"


# a run whose iterate's norm exceeds this has Diverged
DIVERGENCE_BOUND = 1e10


@dataclass(frozen=True)
class FpnConfig:
    """All solver knobs.  The divergence bound is not one: it is fixed at
    DIVERGENCE_BOUND = 1e10.

    epsilon may be zero (the pure fractional-derivative chord); it only
    becomes load-bearing at iterates with zero components.
    """

    alpha: float
    epsilon: float = 1e-3
    tol_step: float = 1e-6
    tol_residual: float = 1e-6
    max_iter: int = 500
    round_exponent_m: int = 5

    def __post_init__(self) -> None:
        a = float(self.alpha)
        if not math.isfinite(a) or not -2.0 <= a <= 2.0:
            raise DomainError(f"alpha must lie in [-2, 2], got {self.alpha!r}")
        if abs(a - round(a)) < INTEGER_GUARD:
            raise DomainError(f"alpha must not be an integer, got {a!r}")
        # an infinite tolerance would report Converged at any finite point
        if not 0.0 <= self.epsilon < math.inf:
            raise DomainError(f"epsilon must be finite and nonnegative, got {self.epsilon!r}")
        if not (0.0 < self.tol_step < math.inf and 0.0 < self.tol_residual < math.inf):
            raise DomainError("tolerances must be positive and finite")
        if self.max_iter < 1:
            raise DomainError(f"max_iter must be >= 1, got {self.max_iter!r}")
        if self.round_exponent_m < 1:
            raise DomainError(f"round_exponent_m must be >= 1, got {self.round_exponent_m!r}")


@dataclass
class IterationTrace:
    """Full history of one solve: iterates plus per-iterate norms.

    step_norms and residual_norms have one entry per iterate after the first.
    """

    iterates: list[np.ndarray] = field(default_factory=list)
    step_norms: list[float] = field(default_factory=list)
    residual_norms: list[float] = field(default_factory=list)


@dataclass(frozen=True, slots=True)
class RootRecord:
    """Outcome of one solve at one fractional order.  Slotted: a sweep keeps
    one per order."""

    alpha: float
    root: np.ndarray
    step_norm: float
    residual_norm: float
    iterations: int
    status: SolveStatus


# most runs a sweep keeps in flight, and so most rows per batched target
# call: it bounds the engine's run states and the evaluators' block arrays.
# A Ci/Si batch call makes the same numpy calls whatever its row count, so
# a wider block spreads that cost over more points.  The Ci/Si scratch,
# kept between calls, is about 2.8 KiB a row; 512 rows ran ci sweeps about
# 10% faster again, for twice that scratch and 3% more peak memory.
_BLOCK_ROWS = 256


def as_complex_vector(x) -> np.ndarray:
    # returns a 1-d complex128 ndarray, such as a target's value, as it is
    if type(x) is np.ndarray and x.dtype == np.complex128 and x.ndim == 1:
        return x
    v = np.atleast_1d(np.asarray(x, dtype=np.complex128))
    if v.ndim != 1:
        raise DomainError(f"expected a 1-d complex vector, got shape {v.shape}")
    return v


def _finite(zs: list[complex], label: str) -> list[complex]:
    # zs, once every component is finite; label names the point in the error
    if not all(map(cmath.isfinite, zs)):
        raise DomainError(f"{label} must be finite")
    return zs


def _norm(zs: list[complex]) -> float:
    """Euclidean norm of the vector with complex components zs: the square
    root of re*re + im*im summed in component order in Python floats.  It
    gives the same bits on every platform and is within a few ulps of
    np.linalg.norm, whose dot products may fuse a*a + b*b on some BLAS
    builds.  It is inf where the sum overflows, and not finite where a part
    is not."""
    s = 0.0
    for z in zs:
        s += z.real * z.real + z.imag * z.imag
    return math.sqrt(s)


def build_p_matrix(x, config: FpnConfig) -> np.ndarray:
    """Diagonal of P evaluated at x: z^(-beta)/Gamma(1-beta) + epsilon per
    component, collapsing to plain epsilon on zero components.  The entries
    are the ones the solver's update uses, bit for bit.  A point that is not
    finite raises DomainError, and an entry that overflows or is not finite
    raises NumericalFailureError."""
    zs = _finite(as_complex_vector(x).tolist(), "point")
    alpha = config.alpha
    entries: list[complex] = []
    # with f(x) = 0 the update is x itself wherever P is finite
    _step(
        zs, [0j] * len(zs), complex(-alpha), recip_gamma(1.0 - alpha), config.epsilon, 0.0,
        entries,
    )
    return np.array(entries, dtype=np.complex128)


def _snap(zs: list[complex], threshold: float) -> list[complex]:
    # Rnd_m on components: imaginary parts of magnitude <= threshold become +0.0
    return [complex(z.real, 0.0) if abs(z.imag) <= threshold else z for z in zs]


def round_iterate(x, m: int) -> np.ndarray:
    """Snap components with |Im| <= 10^-m onto the real axis; idempotent."""
    return np.array(_snap(as_complex_vector(x).tolist(), 10.0 ** (-m)), dtype=np.complex128)


def _step(
    zs: list[complex], fs: list[complex], mw: complex, rg: float, epsilon: float,
    threshold: float, p_out: list[complex] | None = None,
) -> tuple[list[complex], float, float]:
    # One update in one pass over the components: y = Rnd_m(x - P f(x)) for
    # x = zs and f(x) = fs, its step norm _norm(y - x) and its norm _norm(y).
    # mw = complex(-alpha) and rg = 1/Gamma(1 - alpha); each P entry is
    # rl_deriv_constant's formula with complex_power's branches written out,
    # and is appended to p_out if one is given.  NumericalFailureError is
    # raised where an entry overflows or a component of y is not finite.  An
    # entry that is not finite needs no check of its own: each of its parts
    # multiplies both parts of w, so its y is not finite either.  Every entry
    # is complex, so p * w multiplies complex by complex also on Pythons that
    # multiply a float into a complex componentwise (3.14); there rg * e and
    # + epsilon, which mix a float into a complex, may give a zero part of
    # the other sign.  Python rounds each real multiply and add of p * w on
    # its own, so split real numpy arithmetic on a (B, n) batch gives the
    # same bits.
    ys = []
    step = size = 0.0
    for z, w in zip(zs, fs, strict=True):
        if z == 0:  # beta is 1 here, and 1/Gamma(0) = 0 leaves epsilon
            p = complex(epsilon)
        else:
            try:
                if z.imag == 0.0 and z.real > 0.0:
                    p = rg * complex(z.real ** mw.real, 0.0) + epsilon
                else:
                    p = rg * cmath.exp(mw * cmath.log(z)) + epsilon
            except OverflowError as exc:
                raise NumericalFailureError(
                    f"P-matrix entry overflowed at component {len(ys)}"
                ) from exc
        if p_out is not None:
            p_out.append(p)
        y = z - p * w
        if not cmath.isfinite(y):
            raise NumericalFailureError(f"P entry or iterate not finite at component {len(ys)}")
        if abs(y.imag) <= threshold:  # _snap
            y = complex(y.real, 0.0)
        ys.append(y)
        d = y - z
        step += d.real * d.real + d.imag * d.imag
        size += y.real * y.real + y.imag * y.imag
    return ys, math.sqrt(step), math.sqrt(size)


def fpn_step(x, f: "TargetFunction", config: FpnConfig) -> np.ndarray:
    """One update Rnd_m(x - P(x) f(x)).  Evaluation errors propagate."""
    xv = as_complex_vector(x)
    fs = as_complex_vector(f.evaluate(xv)).tolist()
    alpha = config.alpha
    ys, _, _ = _step(
        xv.tolist(), fs, complex(-alpha), recip_gamma(1.0 - alpha), config.epsilon,
        10.0 ** (-config.round_exponent_m),
    )
    return np.array(ys, dtype=np.complex128)


def fpn_solve(
    f: "TargetFunction", x0, config: FpnConfig
) -> tuple[RootRecord, IterationTrace]:
    """Iterate until both the step and the residual drop below tolerance.

    Non-convergence is data, not an exception: runaway iterates report
    Diverged, stalls report MaxIterations, and non-finite arithmetic or
    target evaluation failures report NumericalFailure.
    """
    trace = IterationTrace()
    return _solve(f, x0, config, [config.alpha], trace)[0], trace


def _start(f: "TargetFunction", x0, label: str) -> np.ndarray:
    # x0 as a vector checked against the target; label names it in an error
    x = as_complex_vector(x0)
    if x.shape[0] != f.dimension:
        raise DomainError(f"{label} has dimension {x.shape[0]}, target needs {f.dimension}")
    _finite(x.tolist(), label)
    return x


def _verdict(
    step: float, res: float, size: float, config: FpnConfig, i: int
) -> SolveStatus | None:
    """How a run ends after iteration i with step norm step, residual norm
    res and iterate norm size (_step's, which is _norm of the iterate), or
    None if it goes on."""
    if not math.isfinite(res):
        return SolveStatus.NumericalFailure
    if step <= config.tol_step and res <= config.tol_residual:
        return SolveStatus.Converged
    if size > DIVERGENCE_BOUND:
        return SolveStatus.Diverged
    if i >= config.max_iter:
        return SolveStatus.MaxIterations
    return None


def _evaluate_one(f: "TargetFunction", zs: list[complex]) -> list[complex] | None:
    # f at one iterate, None where the target fails
    try:
        return as_complex_vector(f.evaluate(np.array(zs, dtype=np.complex128))).tolist()
    except TARGET_FAILURES:
        return None


class _Run:
    """One order's state in the engine: its iterate, f there, last norms and iteration count."""

    __slots__ = ("index", "alpha", "mw", "rg", "zs", "fs", "step", "size", "res", "iterations")

    def __init__(self, index: int, alpha: float, zs: list[complex], fs: list[complex] | None):
        self.index = index
        self.alpha = alpha
        self.mw = complex(-alpha)
        self.rg = recip_gamma(1.0 - alpha)
        self.zs = zs
        self.fs = fs
        self.step = math.inf
        self.size = math.inf
        self.res = math.inf
        self.iterations = 0

    def record(self, status: SolveStatus) -> RootRecord:
        root = np.array(self.zs, dtype=np.complex128)
        return RootRecord(self.alpha, root, self.step, self.res, self.iterations, status)


def _evaluate_rows(f: "TargetFunction", rows: list[list[complex]]) -> list[list[complex] | None]:
    """f at every iterate in rows, None where the target fails.  A single row
    goes through evaluate: the TargetFunction contract makes that bitwise the
    same, and it skips a batch evaluator's fixed per-call cost (a 1-row Ci
    batch call costs over ten evaluate calls).  No rows, as when every run of
    a step failed, make no call.  A target without evaluate_batch is
    evaluated row by row; otherwise one evaluate_batch call gives every row,
    and an exception from it propagates."""
    if len(rows) == 1:
        return [_evaluate_one(f, rows[0])]
    if not rows:
        return []
    if f.evaluate_batch is None:
        return [_evaluate_one(f, zs) for zs in rows]
    values = f.evaluate_batch(np.array(rows, dtype=np.complex128))
    if len(values) != len(rows):
        raise ValueError(f"evaluate_batch returned {len(values)} rows for {len(rows)}")
    return values


def _solve(
    f: "TargetFunction", x0, config: FpnConfig, alphas: list[float],
    trace: IterationTrace | None = None,
) -> list[RootRecord]:
    """The one iteration loop: a record per order in alphas, each solved at
    config with that order from the same x0.  fpn_solve and `fracroots solve`
    pass one order, run_sweep a grid's.

    Up to _BLOCK_ROWS runs advance in lockstep: each step makes every live
    run's update in one _step pass over its components (P entries, x - P f(x),
    finiteness checks, Rnd_m, step and iterate norms), evaluates the target at
    all the new iterates in one _evaluate_rows call, takes each residual norm,
    and replaces the runs that ended by the next orders.
    No record depends on the runs beside it, so each is the one-order call's,
    whose blocks are single rows through evaluate.  A trace, given with one
    order, gets x0 and then the iterate and norms of each evaluation that
    returned values.
    """
    assert trace is None or len(alphas) == 1, "a trace follows one order"
    x = _start(f, x0, "initial condition")
    zs0 = x.tolist()
    if trace is not None:
        trace.iterates.append(x.copy())
    epsilon = config.epsilon
    threshold = 10.0 ** (-config.round_exponent_m)
    records: list = [None] * len(alphas)
    with np.errstate(over="ignore", invalid="ignore"):
        fs0 = _evaluate_one(f, zs0)
        if fs0 is None:
            failed = SolveStatus.NumericalFailure
            return [_Run(j, a, zs0, fs0).record(failed) for j, a in enumerate(alphas)]
        orders = enumerate(alphas)
        pending = len(alphas)
        runs: list[_Run] = []
        while True:
            if pending:
                for j, alpha in itertools.islice(orders, _BLOCK_ROWS - len(runs)):
                    runs.append(_Run(j, alpha, zs0, fs0))
                    pending -= 1
            if not runs:
                return records
            moved = []
            rows = []
            for run in runs:
                run.iterations += 1
                try:
                    ys, run.step, run.size = _step(
                        run.zs, run.fs, run.mw, run.rg, epsilon, threshold
                    )
                except NumericalFailureError:
                    records[run.index] = run.record(SolveStatus.NumericalFailure)
                    continue
                run.zs = ys
                moved.append(run)
                rows.append(ys)
            runs = []
            for run, fs in zip(moved, _evaluate_rows(f, rows)):
                run.fs = fs
                if fs is None:
                    run.res = math.inf
                else:
                    run.res = _norm(fs)
                    if trace is not None:
                        trace.iterates.append(np.array(run.zs, dtype=np.complex128))
                        trace.step_norms.append(run.step)
                        trace.residual_norms.append(run.res)
                status = _verdict(run.step, run.res, run.size, config, run.iterations)
                if status is None:
                    runs.append(run)
                else:
                    records[run.index] = run.record(status)


def estimate_convergence_order(trace: IterationTrace) -> tuple[float, float]:
    """Empirical order from the final strictly decreasing stretch of step
    norms: least-squares slope of log s_{i+1} against log s_i, plus the
    intercept-derived convergence factor."""
    s = trace.step_norms
    end = len(s)
    while end > 0 and not (math.isfinite(s[end - 1]) and s[end - 1] > 0.0):
        end -= 1
    if end == 0:
        raise InsufficientDataError("trace has no positive step norms")
    start = end - 1
    while start > 0 and math.isfinite(s[start - 1]) and s[start - 1] > s[start] > 0.0:
        start -= 1
    tail = s[start:end]
    if len(tail) < 4:
        raise InsufficientDataError(
            "need at least five iterates with strictly decreasing positive steps"
        )
    logs = np.log(np.asarray(tail))
    slope, intercept = np.polyfit(logs[:-1], logs[1:], 1)
    return float(slope), float(math.exp(intercept))
