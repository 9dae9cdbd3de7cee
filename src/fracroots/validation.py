"""Oracle validation suites for the fractional-derivative closed forms.

Each suite pits a closed form against an independent quadrature (plus
finite differences for positive orders) and reports the worst gap.  The
same suites back `fracroots validate` and the acceptance tests.
"""

from __future__ import annotations

import math
import random
from typing import Callable

from .fracderiv import (
    FracOrder,
    PowerFunctionSpec,
    rl_deriv_monomial,
    rl_deriv_shifted_power,
    rl_deriv_via_quadrature,
    semigroup_check,
)

__all__ = [
    "SUITES",
    "monomial_oracle_suite",
    "semigroup_suite",
    "prop2_limit_suite",
    "run_suites",
]

MONOMIAL_CASES = 100
MONOMIAL_SEED = 20240809
MONOMIAL_REL_TOL = 1e-5
SEMIGROUP_TOL = 1e-5


def _draw_monomial_case(rng: random.Random) -> tuple[float, float, float]:
    mu = rng.uniform(-0.5, 3.0)
    while True:
        alpha = rng.uniform(-2.0, 2.0)
        if abs(alpha - round(alpha)) < 0.05:
            continue
        # near mu - alpha + 1 in {0, -1} the true value vanishes through a
        # gamma pole and a relative comparison against a noisy oracle is
        # ill-posed; keep the same 0.05 band clear
        if min(abs(mu - alpha + 1.0), abs(mu - alpha + 2.0)) < 0.05:
            continue
        return mu, alpha, rng.uniform(0.1, 5.0)


def monomial_oracle_suite() -> tuple[bool, str]:
    """Closed-form monomial rule vs quadrature/finite-difference oracle."""
    rng = random.Random(MONOMIAL_SEED)
    worst = 0.0
    worst_case = None
    for _ in range(MONOMIAL_CASES):
        mu, alpha, x = _draw_monomial_case(rng)

        def power_fn(t: float, _mu: float = mu) -> float:
            return t ** _mu if t > 0.0 else 0.0

        closed = rl_deriv_monomial(mu, FracOrder(alpha), complex(x)).real
        oracle = rl_deriv_via_quadrature(power_fn, 0.0, x, alpha)
        gap = abs(closed - oracle) / max(abs(closed), abs(oracle))
        if gap > worst:
            worst = gap
            worst_case = (mu, alpha, x)
    ok = worst <= MONOMIAL_REL_TOL
    return ok, f"{MONOMIAL_CASES} cases, worst relative gap {worst:.2e} at {worst_case}"


def _semigroup_cases() -> list[tuple[str, Callable[[float], float], float, float, float]]:
    fns: list[tuple[str, Callable[[float], float]]] = [
        ("one", lambda t: 1.0),
        ("t", lambda t: t),
        ("t2", lambda t: t * t),
        ("sin", math.sin),
        ("exp-half", lambda t: math.exp(0.5 * t)),
    ]
    orders = [(0.5, 0.5, 1.0), (0.3, 0.7, 2.0), (0.25, 0.5, 1.0), (1.2, 0.4, 1.5)]
    return [
        (name, fn, alpha, beta_ord, x)
        for name, fn in fns
        for alpha, beta_ord, x in orders
    ]


def semigroup_suite() -> tuple[bool, str]:
    """Fixed 20-case nested-quadrature check of I^a I^b = I^(a+b)."""
    worst = 0.0
    worst_case = None
    for name, fn, alpha, beta_ord, x in _semigroup_cases():
        gap = semigroup_check(fn, 0.0, x, alpha, beta_ord)
        if gap > worst:
            worst = gap
            worst_case = (name, alpha, beta_ord, x)
    ok = worst <= SEMIGROUP_TOL
    return ok, f"20 cases, worst discrepancy {worst:.2e} at {worst_case}"


def prop2_limit_suite() -> tuple[bool, str]:
    """Shifted-power closed form converges to the monomial rule as c -> a."""
    cases = [(1.5, 0.5, 2.0), (0.7, -0.6, 1.5), (2.0, 1.4, 3.0)]
    report = []
    ok = True
    for mu, alpha, x in cases:
        order = FracOrder(alpha)
        limit = rl_deriv_monomial(mu, order, complex(x)).real
        gaps = []
        for k in range(2, 7):
            spec = PowerFunctionSpec(mu=mu, c=-(10.0 ** -k), a=0.0)
            gaps.append(abs(rl_deriv_shifted_power(spec, order, x) - limit))
        decreasing = all(b < a for a, b in zip(gaps, gaps[1:]))
        ok = ok and decreasing and gaps[-1] < 1e-6 * max(abs(limit), 1.0)
        report.append(f"mu={mu} alpha={alpha}: {gaps[0]:.1e} -> {gaps[-1]:.1e}")
    return ok, "; ".join(report)


SUITES: dict[str, Callable[[], tuple[bool, str]]] = {
    "monomial-oracle": monomial_oracle_suite,
    "semigroup": semigroup_suite,
    "prop2-limit": prop2_limit_suite,
}


def run_suites(names: list[str] | None = None) -> list[tuple[str, bool, str]]:
    selected = names if names else list(SUITES)
    results = []
    for name in selected:
        ok, detail = SUITES[name]()
        results.append((name, ok, detail))
    return results
