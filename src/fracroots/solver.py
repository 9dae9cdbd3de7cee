"""Pseudo-Newton iteration driven by fractional derivatives of constants.

The update is x_{i+1} = Rnd_m(x_i - P(x_i) f(x_i)) where P is diagonal with
entries z^(-beta)/Gamma(1-beta) + epsilon and beta switches from alpha to 1
at z = 0.  One solver instance per fractional order; a sweep over orders
finds many roots from one initial condition.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    DomainError,
    EvaluationError,
    InsufficientDataError,
    NumericalFailureError,
)
from .fracderiv import INTEGER_GUARD, complex_power, recip_gamma

if TYPE_CHECKING:
    from .targets import TargetFunction

__all__ = [
    "FpnConfig",
    "IterationTrace",
    "RootRecord",
    "SolveStatus",
    "beta_exponent",
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


@dataclass(frozen=True)
class FpnConfig:
    """All solver knobs.

    epsilon may be zero (the pure fractional-derivative chord); it only
    becomes load-bearing at iterates with zero components.
    """

    alpha: float
    epsilon: float = 1e-3
    tol_step: float = 1e-6
    tol_residual: float = 1e-6
    max_iter: int = 500
    round_exponent_m: int = 5
    divergence_bound: float = 1e10

    def __post_init__(self) -> None:
        a = float(self.alpha)
        if not math.isfinite(a) or not -2.0 <= a <= 2.0:
            raise DomainError(f"alpha must lie in [-2, 2], got {self.alpha!r}")
        if abs(a - round(a)) < INTEGER_GUARD:
            raise DomainError(f"alpha must not be an integer, got {a!r}")
        if not self.epsilon >= 0.0:
            raise DomainError(f"epsilon must be nonnegative, got {self.epsilon!r}")
        if not (self.tol_step > 0.0 and self.tol_residual > 0.0):
            raise DomainError("tolerances must be positive")
        if self.max_iter < 1:
            raise DomainError(f"max_iter must be >= 1, got {self.max_iter!r}")
        if self.round_exponent_m < 1:
            raise DomainError(f"round_exponent_m must be >= 1, got {self.round_exponent_m!r}")
        if not self.divergence_bound > 0.0:
            raise DomainError("divergence_bound must be positive")


@dataclass
class IterationTrace:
    """Full history of one solve: iterates plus per-iterate norms.

    step_norms and residual_norms have one entry per iterate after the first.
    """

    iterates: list[np.ndarray] = field(default_factory=list)
    step_norms: list[float] = field(default_factory=list)
    residual_norms: list[float] = field(default_factory=list)


@dataclass(frozen=True)
class RootRecord:
    """Outcome of one solve at one fractional order."""

    alpha: float
    root: np.ndarray
    step_norm: float
    residual_norm: float
    iterations: int
    status: SolveStatus


def as_complex_vector(x) -> np.ndarray:
    v = np.atleast_1d(np.asarray(x, dtype=np.complex128))
    if v.ndim != 1:
        raise DomainError(f"expected a 1-d complex vector, got shape {v.shape}")
    return v


def _all_finite(v: np.ndarray) -> bool:
    return bool(np.all(np.isfinite(v.view(np.float64))))


def _l2(v: np.ndarray) -> float:
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.linalg.norm(v))


def beta_exponent(alpha: float, z: complex) -> float:
    """alpha away from the origin, 1 at it (where the constant kernel would
    be discontinuous).  The zero test is exact: sqrt(z conj(z)) > 0."""
    return alpha if complex(z) != 0 else 1.0


def build_p_matrix(x, config: FpnConfig) -> np.ndarray:
    """Diagonal of P evaluated at x: z^(-beta)/Gamma(1-beta) + epsilon per
    component, collapsing to plain epsilon on zero components."""
    xv = as_complex_vector(x)
    rg = recip_gamma(1.0 - config.alpha)
    entries = np.empty(xv.shape[0], dtype=np.complex128)
    for k in range(xv.shape[0]):
        zk = complex(xv[k])
        if beta_exponent(config.alpha, zk) == 1.0:
            entries[k] = config.epsilon
        else:
            try:
                entries[k] = rg * complex_power(zk, -config.alpha) + config.epsilon
            except OverflowError as exc:
                raise NumericalFailureError(
                    f"P-matrix entry overflowed at component {k}"
                ) from exc
    if not _all_finite(entries):
        raise NumericalFailureError("P-matrix contains non-finite entries")
    return entries


def round_iterate(x, m: int) -> np.ndarray:
    """Snap components with |Im| <= 10^-m onto the real axis; idempotent."""
    xv = as_complex_vector(x).copy()
    threshold = 10.0 ** (-m)
    for k in range(xv.shape[0]):
        zk = complex(xv[k])
        if abs(zk.imag) <= threshold:
            xv[k] = complex(zk.real, 0.0)
    return xv


def _advance(x: np.ndarray, fx: np.ndarray, config: FpnConfig) -> np.ndarray:
    # Rnd_m(x - P(x) f(x)) given f(x); NumericalFailureError on a non-finite
    # P entry or iterate
    y = round_iterate(x - build_p_matrix(x, config) * fx, config.round_exponent_m)
    if not _all_finite(y):
        raise NumericalFailureError("iterate contains non-finite components")
    return y


def fpn_step(x, f: "TargetFunction", config: FpnConfig) -> np.ndarray:
    """One update Rnd_m(x - P(x) f(x)).  Evaluation errors propagate."""
    xv = as_complex_vector(x)
    return _advance(xv, as_complex_vector(f.evaluate(xv)), config)


def fpn_solve(
    f: "TargetFunction", x0, config: FpnConfig
) -> tuple[RootRecord, IterationTrace]:
    """Iterate until both the step and the residual drop below tolerance.

    Non-convergence is data, not an exception: runaway iterates report
    Diverged, stalls report MaxIterations, and non-finite arithmetic or
    target evaluation failures report NumericalFailure.
    """
    x = as_complex_vector(x0)
    if x.shape[0] != f.dimension:
        raise DomainError(
            f"initial condition has dimension {x.shape[0]}, target needs {f.dimension}"
        )
    if not _all_finite(x):
        raise DomainError("initial condition must be finite")

    trace = IterationTrace(iterates=[x.copy()])
    step = math.inf
    res = math.inf

    def finish(status: SolveStatus, root: np.ndarray, iterations: int) -> RootRecord:
        return RootRecord(
            alpha=config.alpha,
            root=root.copy(),
            step_norm=step,
            residual_norm=res,
            iterations=iterations,
            status=status,
        )

    try:
        fx = as_complex_vector(f.evaluate(x))
    except (EvaluationError, OverflowError, ZeroDivisionError):
        return finish(SolveStatus.NumericalFailure, x, 0), trace

    for i in range(1, config.max_iter + 1):
        try:
            y = _advance(x, fx, config)
        except NumericalFailureError:
            return finish(SolveStatus.NumericalFailure, x, i), trace
        step = _l2(y - x)
        try:
            fy = as_complex_vector(f.evaluate(y))
        except (EvaluationError, OverflowError, ZeroDivisionError):
            res = math.inf
            return finish(SolveStatus.NumericalFailure, y, i), trace
        res = _l2(fy)
        trace.iterates.append(y.copy())
        trace.step_norms.append(step)
        trace.residual_norms.append(res)
        if not math.isfinite(res):
            return finish(SolveStatus.NumericalFailure, y, i), trace
        if step <= config.tol_step and res <= config.tol_residual:
            return finish(SolveStatus.Converged, y, i), trace
        if _l2(y) > config.divergence_bound:
            return finish(SolveStatus.Diverged, y, i), trace
        x = y
        fx = fy
    return finish(SolveStatus.MaxIterations, x, config.max_iter), trace


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
