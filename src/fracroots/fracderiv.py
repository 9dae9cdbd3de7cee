"""Riemann-Liouville fractional integrals and derivatives.

Closed forms for shifted powers and monomials, the derivative-of-a-constant
kernel used by the solver, termwise series derivatives, plus a quadrature /
finite-difference route that serves as the independent oracle in tests.
scipy.integrate is imported on first use, inside rl_integral_quadrature, so
importing fracroots does not pay for it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .errors import DomainError, QuadratureError
from .specfun import (
    _is_nonpositive_integer,
    beta,
    binomial,
    gamma_real,
    incomplete_beta_regularized,
)

__all__ = [
    "FracOrder",
    "PowerFunctionSpec",
    "complex_power",
    "recip_gamma",
    "rl_integral_quadrature",
    "semigroup_check",
    "rl_deriv_shifted_power",
    "rl_deriv_monomial",
    "rl_deriv_constant",
    "rl_deriv_series",
    "rl_deriv_via_quadrature",
]

INTEGER_GUARD = 1e-9
SEMIGROUP_REL_TOL = 1e-8  # semigroup_check's outer quadratures; inner ones 100x tighter


@dataclass(frozen=True)
class FracOrder:
    """A noninteger differentiation order together with its ceiling.

    Rejects orders within 1e-9 of an integer: the closed forms divide by
    Gamma(1 - alpha), which blows up there.
    """

    alpha: float
    n_ceiling: int = field(init=False)

    def __post_init__(self) -> None:
        a = float(self.alpha)
        if not math.isfinite(a):
            raise DomainError(f"fractional order must be finite, got {self.alpha!r}")
        if abs(a - round(a)) < INTEGER_GUARD:
            raise DomainError(f"fractional order must not be an integer, got {a!r}")
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "n_ceiling", max(0, math.ceil(a)))


@dataclass(frozen=True)
class PowerFunctionSpec:
    """Shifted power f(x) = (x - c)^mu with operator lower terminal a."""

    mu: float
    c: float
    a: float

    def __post_init__(self) -> None:
        if not self.mu > -1.0:
            raise DomainError(f"shifted power requires mu > -1, got mu={self.mu!r}")
        if not self.a >= self.c:
            raise DomainError(
                f"lower terminal must satisfy a >= c, got a={self.a!r}, c={self.c!r}"
            )


def recip_gamma(x: float) -> float:
    """1/Gamma(x); entire, so poles of Gamma map to exact zeros."""
    if _is_nonpositive_integer(x):
        return 0.0
    try:
        return 1.0 / math.gamma(x)
    except OverflowError:
        return 0.0


def complex_power(z: complex, w: complex) -> complex:
    """Principal-branch power z**w, Arg z in (-pi, pi].

    Positive real bases with real exponents stay on the real axis exactly,
    matching the convention of deriving formulas for a real variable and
    then letting it tend to a complex one.
    """
    z = complex(z)
    w = complex(w)
    if z == 0:
        raise DomainError("complex_power requires a nonzero base")
    if z.imag == 0.0 and z.real > 0.0 and w.imag == 0.0:
        return complex(z.real ** w.real, 0.0)
    return cmath.exp(w * cmath.log(z))


def rl_integral_quadrature(
    f: Callable[[float], float],
    a: float,
    x: float,
    alpha: float,
    rel_tol: float = 1e-10,
) -> float:
    """Fractional integral of order alpha > 0 of f over (a, x), by adaptive
    quadrature.

    The substitution t = x - (x-a) s^(1/alpha) absorbs the (x-t)^(alpha-1)
    endpoint singularity exactly, leaving int_0^1 f(x - (x-a) s^(1/alpha)) ds
    scaled by (x-a)^alpha / Gamma(alpha+1).
    """
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise DomainError(f"integral order must be positive, got alpha={alpha!r}")
    if not x > a:
        raise DomainError(f"requires x > a, got x={x!r}, a={a!r}")
    span = x - a
    inv_alpha = 1.0 / alpha

    def integrand(s: float) -> float:
        return f(x - span * s ** inv_alpha)

    from scipy.integrate import quad

    eps = max(rel_tol, 1e-13)
    out = quad(integrand, 0.0, 1.0, epsabs=0.0, epsrel=eps, limit=200, full_output=1)
    value, abserr = out[0], out[1]
    if abserr > max(50.0 * eps * abs(value), 1e-13):
        message = out[3] if len(out) > 3 else "error estimate above tolerance"
        raise QuadratureError(
            f"quadrature reached {abserr:.2e} absolute error on value {value:.6e}: {message}"
        )
    return value * span ** alpha / gamma_real(alpha + 1.0)


def semigroup_check(
    f: Callable[[float], float],
    a: float,
    x: float,
    alpha: float,
    beta_ord: float,
) -> float:
    """|I^alpha I^beta f(x) - I^(alpha+beta) f(x)| by nested quadrature."""
    if not (alpha > 0.0 and beta_ord > 0.0):
        raise DomainError("semigroup check needs positive orders")
    inner_tol = SEMIGROUP_REL_TOL * 1e-2

    def inner(t: float) -> float:
        if t <= a:
            return 0.0
        return rl_integral_quadrature(f, a, t, beta_ord, inner_tol)

    lhs = rl_integral_quadrature(inner, a, x, alpha, SEMIGROUP_REL_TOL)
    rhs = rl_integral_quadrature(f, a, x, alpha + beta_ord, SEMIGROUP_REL_TOL)
    return abs(lhs - rhs)


def _g_with_x_derivatives(big_r: float, big_x: float, m: float, b: float, n: int) -> list[float]:
    """G = 1 - B_r(m, b)/B(m, b) and its first n <= 2 derivatives in x through
    r(x) = (a-c)/(x-c); G = 1 when the terminals coincide."""
    if big_r == 0.0:
        return [1.0, 0.0, 0.0][: n + 1]
    r = big_r / big_x
    g = [1.0 - incomplete_beta_regularized(r, m, b)]
    if n == 0:
        return g
    bfun = beta(m, b)
    density = r ** (m - 1.0) * (1.0 - r) ** (b - 1.0)
    dr = -big_r / (big_x * big_x)
    g.append(-(density / bfun) * dr)
    if n == 1:
        return g
    d2r = 2.0 * big_r / (big_x * big_x * big_x)
    ddensity = (m - 1.0) * r ** (m - 2.0) * (1.0 - r) ** (b - 1.0) - (
        b - 1.0
    ) * r ** (m - 1.0) * (1.0 - r) ** (b - 2.0)
    g.append(-(ddensity * dr * dr + density * d2r) / bfun)
    return g


def rl_deriv_shifted_power(power: PowerFunctionSpec, order: FracOrder, x: float) -> float:
    """Fractional derivative of (x-c)^mu with lower terminal a, in closed form.

    It is d^n/dx^n of Gamma(mu+1)/Gamma(mu+n-alpha+1) (x-c)^(mu+n-alpha) G(x),
    with G the incomplete-beta factor and n = ceil(alpha), or n = 0 below
    zero.  One Leibniz sum over k = 0..n gives it: C(n, k) times the k-th
    derivative of the power times the (n-k)-th of G.  Only the derivatives
    of G that the sum uses are computed.
    """
    mu, c, a = power.mu, power.c, power.a
    alpha = order.alpha
    if not x > a:
        raise DomainError(f"requires x > a, got x={x!r}, a={a!r}")
    if abs(alpha) >= 2.0:
        raise DomainError(f"closed form covers alpha in (-2, 2), got {alpha!r}")
    big_x = x - c
    n = order.n_ceiling
    g_derivs = _g_with_x_derivatives(a - c, big_x, mu + 1.0, n - alpha, n)
    total = 0.0
    for k in range(n + 1):
        g_k = g_derivs[n - k]
        if g_k == 0.0:
            continue
        total += (
            binomial(n, k)
            * gamma_real(mu + 1.0)
            * recip_gamma(mu + n - alpha - k + 1.0)
            * big_x ** (mu + n - alpha - k)
            * g_k
        )
    return total


def rl_deriv_monomial(mu: float, order: FracOrder, z: complex) -> complex:
    """Monomial rule with terminal a = 0:
    D^alpha z^mu = Gamma(mu+1)/Gamma(mu-alpha+1) z^(mu-alpha), principal branch.
    """
    if not mu > -1.0:
        raise DomainError(f"monomial rule requires mu > -1, got mu={mu!r}")
    zc = complex(z)
    p = mu - order.alpha
    if zc == 0:
        if p > 0.0:
            return 0.0 + 0.0j
        raise DomainError("z = 0 with nonpositive result exponent")
    return gamma_real(mu + 1.0) * recip_gamma(mu - order.alpha + 1.0) * complex_power(zc, p)


def rl_deriv_constant(c_value: complex, order: FracOrder, z: complex) -> complex:
    """Fractional derivative of a constant: c * z^(-alpha) / Gamma(1-alpha).

    Nonzero for noninteger alpha, and -> 0 as alpha -> 1: the property the
    whole solver is built on.
    """
    zc = complex(z)
    if zc == 0:
        raise DomainError("constant kernel is undefined at z = 0")
    cv = complex(c_value)
    if cv == 0:
        return 0.0 + 0.0j
    return cv * recip_gamma(1.0 - order.alpha) * complex_power(zc, -order.alpha)


def rl_deriv_series(
    taylor_coeffs: Sequence[float],
    a: float,
    order: FracOrder,
    x: float,
    truncation: int,
) -> float:
    """Termwise fractional derivative of a Taylor series around a:
    sum_k f^(k)(a) / Gamma(k - alpha + 1) * (x-a)^(k-alpha), k = 0..truncation.
    """
    if truncation < 0:
        raise DomainError(f"truncation must be nonnegative, got {truncation!r}")
    if not x > a:
        raise DomainError(f"requires x > a, got x={x!r}, a={a!r}")
    base = x - a
    alpha = order.alpha
    total = 0.0
    for k, coeff in enumerate(taylor_coeffs):
        if k > truncation:
            break
        if coeff == 0.0:
            continue
        total += coeff * recip_gamma(k - alpha + 1.0) * base ** (k - alpha)
    return total


def rl_deriv_via_quadrature(
    f: Callable[[float], float],
    a: float,
    x: float,
    alpha: float,
    rel_tol: float = 1e-11,
) -> float:
    """Independent oracle for fractional derivatives of real functions.

    alpha < 0 falls back to the singularity-absorbed quadrature; alpha in
    (0, 2) differentiates I^(n-alpha) f with central differences.  Steps are
    1e-5 (first order) and 1e-3 (second order), scaled by max(|x|, 1): the
    second difference divides quadrature roundoff by h^2, so h must stay
    well above the ~1e-14 noise floor to keep the oracle below 1e-5 error.
    """
    if abs(alpha - round(alpha)) < INTEGER_GUARD:
        raise DomainError(f"oracle requires noninteger order, got alpha={alpha!r}")
    if alpha < 0.0:
        return rl_integral_quadrature(f, a, x, -alpha, rel_tol)
    n = math.ceil(alpha)

    def smoothed(y: float) -> float:
        return rl_integral_quadrature(f, a, y, n - alpha, rel_tol)

    if n == 1:
        h = 1e-5 * max(abs(x), 1.0)
        return (smoothed(x + h) - smoothed(x - h)) / (2.0 * h)
    if n == 2:
        h = 1e-3 * max(abs(x), 1.0)
        return (smoothed(x + h) - 2.0 * smoothed(x) + smoothed(x - h)) / (h * h)
    raise DomainError(f"finite-difference oracle covers alpha < 2, got {alpha!r}")
