"""Output checks and counting for the benchmark.

The oracle re-evaluates each converged root of the *truncated* target in
mpmath at 50 digits, independently of the library's own arithmetic, so a
loss of precision that the solver's residual cannot see still shows.  The
reference root lists and their match tolerances are the acceptance suite's.
"""

from __future__ import annotations

import io
import math
import struct
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from fracroots.cli import (
    read_records_csv,
    read_records_jsonl,
    write_records_csv,
    write_records_jsonl,
)
from fracroots.solver import RootRecord, SolveStatus

# The solver stops at tol_residual = 1e-6 measured in its own arithmetic.
# At the seed the worst 50-digit |f| over the zeta sweep's converged records
# is 9.96e-7, so the 50-digit value may sit at the tolerance itself.  Ten
# times the tolerance leaves room for last-bit differences between
# platforms while a root moved by 1e-5 or more (|f'| >~ 1 at every
# reference root) still fails.
ORACLE_TOL = 1e-5
ORACLE_DIGITS = 50

ZETA_ORDINATES = (
    14.134725,
    21.022040,
    25.010858,
    30.424876,
    32.935062,
    37.586178,
    40.918719,
    43.327073,
)
ZETA_TRIVIAL = (-2.0, -6.0, -10.0)
CI_ROOTS = (0.616505, 3.384180, 9.525576, 15.770350, 22.036140)
SI_ROOTS = (1.926446, 4.893836, 11.083038, 17.335664, 23.603993)
EX3_REAL_ROOT = np.array([-0.154422 + 0j, 1.140219 + 0j])
EX3_CONJUGATE_PAIRS = (
    (
        np.array([1.01828092 + 0.52158397j, 5.18478971 - 3.76689418j]),
        np.array([1.01828092 - 0.52158397j, 5.18479004 + 3.76689413j]),
    ),
    (
        np.array([-0.13780201 + 0.87180277j, 2.16460973 + 4.68221216j]),
        np.array([-0.13780202 - 0.87180273j, 2.16460988 - 4.68221226j]),
    ),
    (
        np.array([-1.36674692 + 0.07786741j, -5.76423 + 0.47853094j]),
        np.array([-1.36674698 - 0.07786726j, -5.76422966 - 0.4785315j]),
    ),
    (
        np.array([-0.76073057 + 0.14192444j, -2.11123992 + 0.82667655j]),
        np.array([-0.76073047 - 0.14192446j, -2.11123884 - 0.8266763j]),
    ),
    (
        np.array([1.14584377 - 0.68994257j, 8.09450013 + 5.9960712j]),
        np.array([1.14584377 + 0.68994256j, 8.09450017 - 5.99607116j]),
    ),
)
SERIES_K = 50


# --- counting -----------------------------------------------------------------


@dataclass
class Tally:
    """Operations attempted and failed, with the reasons for each failure.

    An operation is one order solve or one CLI call.  It fails when any of
    its checks finds a problem; non-converged statuses are outcomes of the
    method, not failures.
    """

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def add(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.reasons.append("; ".join(problems))

    def fail_all(self, count: int, reason: str) -> None:
        """`count` operations lost to one error, such as an escaped exception."""
        self.attempted += count
        self.failed += count
        self.reasons.append(f"{count} operations: {reason}")

    @property
    def error_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


# --- percentiles ---------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q% of the
    samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of `count` samples lie above the nearest-rank q-th percentile."""
    return count - max(1, math.ceil(q / 100.0 * count))


# --- 50-digit oracle -------------------------------------------------------------


def _mp():
    # imported on first use, after the timed passes, so that the workload's
    # peak memory does not include it
    import mpmath

    return mpmath


@lru_cache(maxsize=None)
def _zeta_weights(k: int) -> tuple[int, ...]:
    # sum over m of (-1)^p C(m,p) 2^-(m+1), scaled by 2^(k+1): exact integers
    return tuple(
        (-1) ** p * sum(math.comb(m, p) << (k - m) for m in range(p, k + 1))
        for p in range(k + 1)
    )


def _mp_target(name: str, x):
    """The truncated target `name` at the mpc vector `x`, in mpmath."""
    mp = _mp()
    if name == "zeta-hasse":
        z = x[0]
        weights = _zeta_weights(SERIES_K)
        total = mp.fsum(w * mp.power(p + 1, -z) for p, w in enumerate(weights))
        total /= mp.mpf(2) ** (SERIES_K + 1)
        return [total / (1 - mp.power(2, 1 - z))]
    if name == "ci":
        z = x[0]
        series = mp.fsum(
            (-1) ** m * z ** (2 * m) / (2 * m * mp.factorial(2 * m))
            for m in range(1, SERIES_K + 1)
        )
        return [-mp.euler - mp.log(z) - series]
    if name == "si":
        z = x[0]
        series = mp.fsum(
            (-1) ** m * z ** (2 * m + 1) / ((2 * m + 1) * mp.factorial(2 * m + 1))
            for m in range(SERIES_K + 1)
        )
        return [mp.pi / 2 - series]
    if name == "example3":
        x1, x2 = x
        quarter_pi_inv = 1 / (4 * mp.pi)
        f1 = x1 * (mp.sin(x1 * x2) - 1) / 2 - quarter_pi_inv * x2
        f2 = (1 - quarter_pi_inv) * (mp.exp(2 * x1) - mp.e) + mp.e * (x2 / mp.pi - 2 * x1)
        return [f1, f2]
    raise ValueError(f"no oracle for target {name!r}")


def oracle_residual(name: str, root) -> float:
    """2-norm of the truncated target at `root`, evaluated at 50 digits."""
    mp = _mp()
    with mp.workdps(ORACLE_DIGITS):
        x = [mp.mpc(complex(z).real, complex(z).imag) for z in np.atleast_1d(root)]
        return float(mp.sqrt(mp.fsum(abs(v) ** 2 for v in _mp_target(name, x))))


# --- record identity and round trips ------------------------------------------------


def _same_float(a: float, b: float) -> bool:
    # bitwise, so -0.0 and 0.0 differ; any NaN equals any NaN, because text
    # formats cannot carry a NaN's sign or payload
    return struct.pack("<d", a) == struct.pack("<d", b) or (a != a and b != b)


def same_record(a: RootRecord, b: RootRecord) -> bool:
    """Equality of two records bit for bit, except that NaNs match."""
    return (
        _same_float(a.alpha, b.alpha)
        and a.status is b.status
        and a.iterations == b.iterations
        and _same_float(a.step_norm, b.step_norm)
        and _same_float(a.residual_norm, b.residual_norm)
        and a.root.shape == b.root.shape
        and all(map(_same_float, a.root.view(np.float64), b.root.view(np.float64)))
    )


FORMATS = {
    "csv": (write_records_csv, read_records_csv),
    "jsonl": (write_records_jsonl, read_records_jsonl),
}


def write_text(fmt: str, records) -> str:
    buf = io.StringIO()
    FORMATS[fmt][0](buf, records)
    return buf.getvalue()


def read_text(fmt: str, text: str) -> list[RootRecord]:
    return FORMATS[fmt][1](io.StringIO(text))


def round_trips(fmt: str, records) -> bool:
    """Writing then reading gives back every record bit for bit."""
    back = read_text(fmt, write_text(fmt, records))
    return len(back) == len(records) and all(map(same_record, records, back))


def record_problems(name: str, rec: RootRecord) -> list[str]:
    """Everything wrong with one solve's record: a converged root that fails
    the 50-digit oracle, or a csv/jsonl round trip that is not exact."""
    problems = []
    if rec.status is SolveStatus.Converged:
        res = oracle_residual(name, rec.root)
        if not res <= ORACLE_TOL:
            problems.append(f"{name} alpha={rec.alpha!r}: 50-digit |f| = {res:.3e} at {rec.root}")
    problems.extend(
        f"{name} alpha={rec.alpha!r}: {fmt} round trip not exact"
        for fmt in FORMATS
        if not round_trips(fmt, [rec])
    )
    return problems


# --- reference roots ---------------------------------------------------------------

# run_sweep's default cluster tolerance
DISTINCT_TOL = 1e-4


def distinct_roots(pairs) -> int:
    """(target, root) pairs more than DISTINCT_TOL apart within their target,
    counted greedily in order."""
    reps: list[tuple[str, np.ndarray]] = []
    for name, root in pairs:
        if not any(n == name and float(np.linalg.norm(root - r)) < DISTINCT_TOL
                   for n, r in reps):
            reps.append((name, root))
    return len(reps)


def reference_hits(name: str, roots) -> set[str]:
    """Labels of the acceptance-suite reference roots that `roots` recover."""
    hits: set[str] = set()
    for root in roots:
        root = np.atleast_1d(np.asarray(root, dtype=np.complex128))
        z = complex(root[0])
        if name == "zeta-hasse":
            if abs(z.real - 0.5) <= 1e-3:
                hits.update(f"zeta:{t}" for t in ZETA_ORDINATES if abs(abs(z.imag) - t) <= 1e-3)
            hits.update(f"zeta:{t}" for t in ZETA_TRIVIAL if abs(z - t) <= 1e-3)
        elif name in ("ci", "si"):
            refs = CI_ROOTS if name == "ci" else SI_ROOTS
            hits.update(f"{name}:{t}" for t in refs if abs(z - t) <= 1e-4)
        elif name == "example3":
            if float(np.linalg.norm(root - EX3_REAL_ROOT)) <= 1e-4:
                hits.add("example3:real")
            for i, pair in enumerate(EX3_CONJUGATE_PAIRS):
                for j, ref in enumerate(pair):
                    if float(np.linalg.norm(root - ref)) <= 1e-3:
                        hits.add(f"example3:pair{i}.{j}")
    return hits
