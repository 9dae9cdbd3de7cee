"""Sweep of the solver over a grid of fractional orders.

One initial condition, many orders: different orders land on different
roots.  Converged roots are deduplicated by greedy clustering; failures stay
in the report as data.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .solver import FpnConfig, RootRecord, SolveStatus, _norm, _solve, _start, as_complex_vector
from .targets import TargetFunction

__all__ = ["AlphaGrid", "UniqueRoot", "SweepReport", "run_sweep", "stability_probe"]

MAX_GRID_ORDERS = 1_000_000  # the largest shipped grid has 2,501 orders
INTEGER_EXCLUSION = 0.01


@dataclass(frozen=True)
class AlphaGrid:
    """Evenly spaced fractional orders in [lo, hi], minus the orders within
    a fixed INTEGER_EXCLUSION = 0.01 of an integer."""

    lo: float
    hi: float
    step: float

    def __post_init__(self) -> None:
        if not (-2.0 <= self.lo < self.hi <= 2.0):
            raise DomainError(
                f"grid must satisfy -2 <= lo < hi <= 2, got lo={self.lo!r}, hi={self.hi!r}"
            )
        if not self.step > 0.0:
            raise DomainError(f"grid step must be positive, got {self.step!r}")
        count = self._count()
        if count > MAX_GRID_ORDERS:
            raise DomainError(f"grid has {count:,} orders, more than {MAX_GRID_ORDERS:,}")
        orders = []
        for k in range(count):
            v = self.lo + k * self.step
            # _count's margin can step past hi, but not out of the band around 2
            if abs(v - round(v)) >= INTEGER_EXCLUSION:
                orders.append(v)
        if not orders:
            raise DomainError("grid is empty after integer exclusion")
        # built once: every sweep over this grid shares the order floats
        object.__setattr__(self, "_orders", tuple(orders))

    def _count(self) -> float:
        # orders before integer exclusion; inf where span / step overflows
        n = (self.hi - self.lo) / self.step + 1e-9
        return math.floor(n) + 1 if n < math.inf else math.inf

    def values(self) -> list[float]:
        return list(self._orders)


@dataclass(frozen=True)
class UniqueRoot:
    """One deduplicated root: the cluster representative, how many runs hit
    it, and the member record with the smallest residual."""

    root: np.ndarray
    multiplicity_count: int
    best_record: RootRecord


@dataclass(frozen=True)
class SweepReport:
    records: list[RootRecord]
    unique_roots: list[UniqueRoot]


def _cluster_converged(records: list[RootRecord], cluster_tol: float) -> list[UniqueRoot]:
    reps: list[np.ndarray] = []
    members: list[list[RootRecord]] = []
    for rec in records:
        if rec.status is not SolveStatus.Converged:
            continue
        best_j = -1
        best_dist = math.inf
        for j, rep in enumerate(reps):
            d = _norm((rec.root - rep).tolist())
            if d < best_dist:
                best_dist = d
                best_j = j
        if best_j >= 0 and best_dist < cluster_tol:
            members[best_j].append(rec)
        else:
            reps.append(rec.root)
            members.append([rec])
    out = []
    for rep, group in zip(reps, members):
        best = min(group, key=lambda r: r.residual_norm)
        out.append(UniqueRoot(root=rep, multiplicity_count=len(group), best_record=best))
    return out


def run_sweep(
    f: TargetFunction,
    x0,
    grid: AlphaGrid,
    base_config: FpnConfig,
    cluster_tol: float = 1e-4,
) -> SweepReport:
    """Solve once per grid order from the same initial condition.

    The orders advance in lockstep and share batched target calls; each
    record is bitwise the one a solve at that order alone gives.  Per-run
    failures are recorded, never raised; the unique-root list keeps the
    first-seen representative of each cluster and its best record.
    """
    if not cluster_tol > 0.0:
        raise DomainError(f"cluster_tol must be positive, got {cluster_tol!r}")
    alphas = grid.values()
    for alpha in alphas:
        # each order is checked as a solve at that order alone checks it
        dataclasses.replace(base_config, alpha=alpha)
    records = _solve(f, x0, base_config, alphas)
    return SweepReport(records=records, unique_roots=_cluster_converged(records, cluster_tol))


def stability_probe(
    f: TargetFunction, xi, deltas
) -> list[tuple[float, float]]:
    """Residual norms at xi shifted along the real axis by each delta."""
    xiv = _start(f, xi, "probe point")
    deltas = [float(d) for d in deltas]
    infinite = [d for d in deltas if not math.isfinite(d)]
    if infinite:
        raise DomainError(f"probe offsets delta must be finite, got {infinite}")
    out = []
    for d in deltas:
        shifted = xiv + complex(d, 0.0)
        value = _norm(as_complex_vector(f.evaluate(shifted)).tolist())
        out.append((d, value))
    return out
