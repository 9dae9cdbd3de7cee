"""Real and complex special functions: gamma, log-gamma, beta, regularized
incomplete beta, binomial coefficients.

Everything here is a pure function.  The values come from scipy.special
(log-gamma, regularized incomplete beta) and the stdlib (math.gamma,
math.comb); this module adds the domain checks, the pole errors and the
branch convention on the negative real axis.  scipy.special is imported on
first use, inside the two functions that need it, so importing fracroots
does not pay for it.
"""

from __future__ import annotations

import math

from .errors import DomainError, PoleError

__all__ = [
    "gamma_real",
    "log_gamma_complex",
    "beta",
    "incomplete_beta_regularized",
    "binomial",
]

_MAX_BINOMIAL_ROW = 60


def _is_nonpositive_integer(x: float) -> bool:
    return x <= 0.0 and x == math.floor(x)


def gamma_real(x: float) -> float:
    """Gamma function on the real line.

    Raises PoleError at nonpositive integers and OverflowError when the
    result exceeds the double-precision range (|x| beyond ~171).
    """
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"gamma_real requires a finite argument, got {x!r}")
    if _is_nonpositive_integer(x):
        raise PoleError(f"gamma has a pole at {x:g}")
    return math.gamma(x)


def log_gamma_complex(z: complex) -> complex:
    """Principal value of log Gamma on the cut plane C minus (-inf, 0].

    Points on the negative real axis use the Im -> +0 side: a zero imaginary
    part is passed on as +0.0, because scipy puts Im = -0.0 on the other side
    of the cut.
    """
    z = complex(z)
    if z.imag == 0.0:
        if _is_nonpositive_integer(z.real):
            raise PoleError(f"log gamma has a pole at {z.real:g}")
        z = complex(z.real, 0.0)
    from scipy.special import loggamma

    return complex(loggamma(z))


def beta(p: float, q: float) -> float:
    """Euler beta function B(p, q) = Gamma(p) Gamma(q) / Gamma(p+q), p, q > 0."""
    if not (p > 0.0 and q > 0.0):
        raise DomainError(f"beta requires positive parameters, got p={p!r}, q={q!r}")
    if p + q < 170.0:
        return gamma_real(p) * gamma_real(q) / gamma_real(p + q)
    return math.exp(math.lgamma(p) + math.lgamma(q) - math.lgamma(p + q))


def incomplete_beta_regularized(r: float, p: float, q: float) -> float:
    """Regularized incomplete beta I_r(p, q) = B_r(p, q) / B(p, q).

    Values come from scipy.special.betainc; r = 0 and r = 1 give exact 0
    and 1.
    """
    if not (p > 0.0 and q > 0.0):
        raise DomainError(f"incomplete beta requires p, q > 0, got p={p!r}, q={q!r}")
    if not 0.0 <= r <= 1.0:
        raise DomainError(f"incomplete beta requires 0 <= r <= 1, got r={r!r}")
    if r == 0.0:
        return 0.0
    if r == 1.0:
        return 1.0
    from scipy.special import betainc

    return float(betainc(p, q, r))


def binomial(m: int, p: int) -> int:
    """Exact binomial coefficient C(m, p) for 0 <= p <= m <= 60.

    The cap keeps the hasse_zeta weight numerators, sums of C(m, p) 2^(k-m)
    of up to k+1 bits, exact in the 64-bit mantissa of 80-bit extended precision.
    """
    if m != int(m) or p != int(p):
        raise DomainError(f"binomial requires integer arguments, got m={m!r}, p={p!r}")
    m = int(m)
    p = int(p)
    if p < 0 or m < 0 or p > m:
        raise DomainError(f"binomial requires 0 <= p <= m, got m={m}, p={p}")
    if m > _MAX_BINOMIAL_ROW:
        raise DomainError(f"binomial is capped at m={_MAX_BINOMIAL_ROW}, got m={m}")
    return math.comb(m, p)
