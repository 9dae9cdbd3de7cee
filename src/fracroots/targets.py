"""Registry of evaluatable target functions.

Truncated cosine- and sine-integral series, the globally convergent zeta
series as one exact-weight sum, zeta through its functional equation, a
2-d exponential-sine benchmark system, and generic polynomials.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import TARGET_FAILURES, DomainError, EvaluationError
from .specfun import binomial, log_gamma_complex

__all__ = [
    "EULER_MASCHERONI",
    "TargetFunction",
    "ci_series",
    "si_series",
    "hasse_zeta",
    "zeta_functional",
    "zeta_functional_target",
    "example3_system",
    "polynomial",
    "make_target",
    "REGISTRY_NAMES",
    "parse_complex",
    "parse_complex_vector",
]

EULER_MASCHERONI = 0.5772156649015329

_LN2 = math.log(2.0)
_LN_PI = math.log(math.pi)
_REAL, _IMAG = operator.attrgetter("real"), operator.attrgetter("imag")

REGISTRY_NAMES = ("ci", "si", "zeta-hasse", "example3", "poly")


@dataclass(frozen=True)
class TargetFunction:
    """Evaluatable f: C^n -> C^n with dimension and truncation metadata.

    evaluate must be deterministic and side-effect-free.  evaluate_batch, if
    given, maps a (B, n) complex128 array to a (B, n) one whose every row
    equals evaluate on that row bit for bit; where evaluate fails on any row,
    it raises EvaluationError, OverflowError or ZeroDivisionError.  That
    exception may carry batch_values: for every row, evaluate(row).tolist(),
    or None where evaluate fails, so that no row needs evaluating again.
    """

    name: str
    dimension: int
    evaluate: Callable[[np.ndarray], np.ndarray]
    truncation_k: int | None = None
    evaluate_batch: Callable[[np.ndarray], np.ndarray] | None = None


# fsum of terms that are all -0.0: 0.0 on Python 3.11, which drops the sign
_FSUM_OF_NEGATIVE_ZERO = math.fsum([-0.0])


def _column_fsums(terms: np.ndarray) -> list[float]:
    """math.fsum of every column of the (k, R) float64 array terms, bit for bit.

    A pairwise TwoSum cascade (Ogita, Rump & Oishi, "Accurate sum and dot
    product", 2005) splits each column without rounding error into a sum s
    and k - 1 error terms.  TwoSum of s and the float sum e of those error
    terms gives r and a residual rho, so the exact column sum is r + rho plus
    the rounding error of e, which is at most (k - 1) u / (1 - (k - 1) u)
    times the sum of |error| in any summation order (u = 2^-53); doubling
    that covers the rounding of the bound itself.  Where |rho| plus the bound
    is below half the gap from |r| down to the next float, the exact sum
    rounds to r, the correctly rounded result fsum returns.  A column of
    signed zeros sums to fsum's zero of the same signs.  The remaining columns
    (a zero result of nonzero terms, a near-tie, a non-finite term, or terms
    large enough that fsum could overflow in between) go through math.fsum,
    which keeps its OverflowError, ValueError and special values.
    """
    k = terms.shape[0]
    work = terms.copy()
    errors = np.empty_like(terms[:-1])
    with np.errstate(over="ignore", invalid="ignore"):
        n, used = k, 0
        while n > 1:
            half = n // 2
            a, b = work[:half], work[n - half : n]
            s = a + b
            b_virtual = s - a
            err = errors[used : used + half]
            np.subtract(a, s - b_virtual, out=err)
            err += b - b_virtual
            work[:half] = s
            n -= half
            used += half
        s, e = work[0], errors.sum(axis=0)
        r = s + e
        e_virtual = r - s
        rho = (s - (r - e_virtual)) + (e - e_virtual)
        bound = np.abs(errors).sum(axis=0) * (2.0 * (k - 1) * 2.0**-53)
        magnitude = np.abs(r)
        half_gap = (magnitude - np.nextafter(magnitude, 0.0)) * 0.5
        absolute = np.abs(terms).sum(axis=0)
        # below 2^1020 no partial sum of fsum's, in any order, overflows
        certified = (np.abs(rho) + bound < half_gap) & (absolute < 2.0**1020)
    zero = absolute == 0.0
    if zero.any():
        # columns of signed zeros (the imaginary parts on the real axis)
        r[zero] = np.where(np.signbit(terms[:, zero]).all(axis=0), _FSUM_OF_NEGATIVE_ZERO, 0.0)
        certified |= zero
    sums = r.tolist()
    for j in np.flatnonzero(~certified).tolist():
        sums[j] = math.fsum(terms[:, j].tolist())
    return sums


def _series_terms(
    coeffs: np.ndarray, re: np.ndarray, im: np.ndarray, z2re: np.ndarray, z2im: np.ndarray
) -> np.ndarray:
    """The terms c_j * power_j of a batch of B points, power_0 = re + i im and
    power_j = power_{j-1} * z2, as a (len(coeffs), 2B) array: column b holds
    the real parts of point b's terms and column B + b their imaginary parts.

    Split real arithmetic rounds every multiply and add on its own, as
    Python's complex product does, so each point's terms are bitwise the
    Python terms complex(c_j, 0.0) * power_j, infinities and NaNs included.
    """
    power_re = np.empty((len(coeffs), len(re)))
    power_im = np.empty_like(power_re)
    power_re[0], power_im[0] = re, im
    for j in range(1, len(coeffs)):
        pr, pi = power_re[j - 1], power_im[j - 1]
        np.subtract(pr * z2re, pi * z2im, out=power_re[j])
        np.add(pr * z2im, pi * z2re, out=power_im[j])
    c = coeffs[:, None]
    terms = np.empty((len(coeffs), 2 * len(re)))
    np.subtract(c * power_re, 0.0 * power_im, out=terms[:, : len(re)])
    np.add(c * power_im, 0.0 * power_re, out=terms[:, len(re) :])
    return terms


def _inverse_of_int(denominator: int) -> float:
    # exact integer -> correctly rounded reciprocal; the alternating series
    # peak near |x| ~ 30 at ~1e11, so coefficient error must stay at 0.5 ulp
    try:
        return 1.0 / denominator
    except OverflowError:
        return 0.0


def _series_target(name: str, k: int, odd: bool, head: float, log: bool) -> TargetFunction:
    """f(x) = head - [log(x)] - sum_n (-1)^(n//2) x^n / (n n!), the sum over the
    even powers n = 2..2k or, if odd, over the odd powers n = 1..2k+1.  With
    log, x = 0 is a singularity.

    The scalar path builds each term as a Python complex product, from the
    first power x (odd) or (1+0j) * x^2, and takes the correctly rounded sum
    of each component with math.fsum: the alternating terms reach ~1e11 at
    the outer roots.  The batch path reproduces those bits through
    _series_terms and _column_fsums.
    """
    if k < 1:
        raise DomainError(f"series truncation must be >= 1, got k={k!r}")
    exponents = range(2 - odd, 2 * k + 2, 2)
    mags = [_inverse_of_int(n * math.factorial(n)) for n in exponents]
    reals = np.array([-mag if n // 2 % 2 else mag for n, mag in zip(exponents, mags)])
    # complex coefficients: complex x complex terms on every Python version
    first, *tail = [complex(c, 0.0) for c in reals.tolist()]

    def evaluate(v: np.ndarray) -> np.ndarray:
        z = complex(v[0])
        if log and z == 0:
            raise EvaluationError("logarithmic singularity at x = 0")
        z2 = z * z
        power = z if odd else (1.0 + 0.0j) * z2
        terms = [first * power]
        for c in tail:
            power *= z2
            terms.append(c * power)
        acc = complex(math.fsum(map(_REAL, terms)), math.fsum(map(_IMAG, terms)))
        return np.array([head - cmath.log(z) - acc if log else head - acc], dtype=np.complex128)

    def evaluate_batch(x: np.ndarray) -> np.ndarray:
        zs = x[:, 0]
        if log and np.any(zs == 0):
            raise EvaluationError("logarithmic singularity at x = 0")
        with np.errstate(over="ignore", invalid="ignore"):
            re, im = zs.real, zs.imag
            # z*z, rounded as Python's complex product rounds it
            z2re, z2im = re * re - im * im, re * im + im * re
            if not odd:
                # the first power (1+0j) * z2
                re, im = 1.0 * z2re - 0.0 * z2im, 1.0 * z2im + 0.0 * z2re
            terms = _series_terms(reals, re, im, z2re, z2im)
        sums = _column_fsums(terms)
        accs = map(complex, sums[: len(zs)], sums[len(zs) :])
        if log:
            values = [head - cmath.log(z) - acc for z, acc in zip(zs.tolist(), accs)]
        else:
            values = [head - acc for acc in accs]
        return np.array(values, dtype=np.complex128).reshape(-1, 1)

    return TargetFunction(name, 1, evaluate, truncation_k=k, evaluate_batch=evaluate_batch)


def ci_series(k: int) -> TargetFunction:
    """Truncated series for the cosine integral Ci tail:
    f_k(x) = -gamma - log(x) - sum_{m=1}^{k} (-1)^m x^(2m) / (2m (2m)!).
    """
    return _series_target("ci", k, odd=False, head=-EULER_MASCHERONI, log=True)


def si_series(k: int) -> TargetFunction:
    """Truncated series for the sine integral tail:
    f_k(x) = pi/2 - sum_{m=0}^{k} (-1)^m x^(2m+1) / ((2m+1) (2m+1)!).
    """
    return _series_target("si", k, odd=True, head=0.5 * math.pi, log=False)


# typed, so that a non-int k fails in range() whatever k was cached before
@functools.lru_cache(typed=True)
def _hasse_weights(k: int) -> np.ndarray:
    """c_p = (-1)^p sum_{m=p}^{k} C(m,p) 2^-(m+1) for p = 0..k, in longdouble.

    Each c_p is an integer of at most k+1 bits over 2^(k+1), so it is exact in
    the 64-bit mantissa for k <= 60, the cap that binomial enforces.  Cached
    per k and read-only, since every target of one k shares the array.
    """
    nums = [sum(binomial(m, p) << (k - m) for m in range(p, k + 1)) for p in range(k + 1)]
    weights = np.array(nums, dtype=np.longdouble) / np.longdouble(2) ** (k + 1)
    weights[1::2] *= -1
    weights.flags.writeable = False
    return weights


# typed for the same reason as _hasse_weights
@functools.lru_cache(typed=True)
def _power_pairs(top: int) -> tuple[np.ndarray, np.ndarray]:
    """Exponent table that builds n^-x for n = 1..top from few exponentials.

    The generators are 1..m and the primes up to top, with m the least value
    for which every n <= top is a product gens[l] * gens[r]; n^-x is then
    gens[l]^-x * gens[r]^-x, since n^-x is completely multiplicative.
    Returns -log(gens) in clongdouble (gens[0] = 1, so its exponential is
    exactly 1, and gens[1] = 2) and the (2, top) index pairs (l, r) of
    n = 1..top, a generator n paired with 1.  Cached per top and read-only.
    """
    primes = {n for n in range(2, top + 1) if all(n % d for d in range(2, math.isqrt(n) + 1))}

    def size(d: int) -> int:
        # the least m for which the factor d is a generator
        return 1 if d in primes else d

    def splits(n: int) -> list[int]:
        return [d for d in range(1, n + 1) if n % d == 0]

    m = max(min(max(size(d), size(n // d)) for d in splits(n)) for n in range(1, top + 1))
    gens = sorted(set(range(1, m + 1)) | primes)
    index = {g: i for i, g in enumerate(gens)}
    pairs = [
        next((index[d], index[n // d]) for d in splits(n) if d in index and n // d in index)
        for n in range(1, top + 1)
    ]
    neg_log = -np.log(np.array(gens, dtype=np.longdouble)).astype(np.clongdouble)
    pair_index = np.array(pairs, dtype=np.intp).T.copy()
    neg_log.flags.writeable = False
    pair_index.flags.writeable = False
    return neg_log, pair_index


def hasse_zeta(k: int) -> TargetFunction:
    """Globally convergent series for zeta, truncated at outer index k:
    f_k(x) = 1/(1 - 2^(1-x)) sum_{m=0}^{k} 2^-(m+1) sum_{p=0}^{m} (-1)^p C(m,p) (p+1)^(-x)
           = 1/(1 - 2^(1-x)) sum_{p=0}^{k} c_p (p+1)^(-x),
    one sum with the exact weights c_p of _hasse_weights.  It is accumulated
    in 80-bit extended precision: at real x near -10 the alternating products
    reach ~1e15 while the sum is ~1e-3, which double precision cannot survive.
    Exponentials are taken only at the generators of _power_pairs (20 of them
    for k = 50); every other (p+1)^-x is a longdouble product of two generator
    powers, and 2^(1-x) = 2 * 2^-x.
    """
    if k < 1:
        raise DomainError(f"series truncation must be >= 1, got k={k!r}")
    weights = _hasse_weights(k).astype(np.clongdouble)
    neg_log, pair_index = _power_pairs(k + 1)

    def _eval(v: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            powers = np.exp(neg_log * v[0])
            prefactor_denom = 1 - 2 * powers[1]
            if abs(complex(prefactor_denom)) < 1e-12:
                raise EvaluationError("pole of the series prefactor (2^(1-x) = 1)")
            factors = powers[pair_index]
            value = complex(weights @ (factors[0] * factors[1]) / prefactor_denom)
        return np.array([value], dtype=np.complex128)

    def _eval_batch(x: np.ndarray) -> np.ndarray:
        # 64 rows at a time, so each (rows, k+1) clongdouble temporary stays
        # under glibc's 128 KiB mmap threshold for k <= 60.  On x86-64 Linux
        # a whole 128-row block page-faulted its scratch in again on every
        # call (~90 faults) and cost 10% more a point.
        return np.concatenate([_eval_block(x[i : i + 64]) for i in range(0, len(x), 64)])

    def _eval_block(x: np.ndarray) -> np.ndarray:
        # _eval's longdouble operations elementwise over a (B, G) block
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            powers = neg_log * x[:, :1]
            np.exp(powers, out=powers)
            prefactor_denom = 1 - 2 * powers[:, 1]
            if any(abs(d) < 1e-12 for d in prefactor_denom.astype(np.complex128).tolist()):
                raise EvaluationError("pole of the series prefactor (2^(1-x) = 1)")
            products = powers[:, pair_index[0]]
            products *= powers[:, pair_index[1]]
            values = weights @ products.T / prefactor_denom
            return values.astype(np.complex128).reshape(-1, 1)

    return TargetFunction("zeta-hasse", 1, _eval, truncation_k=k, evaluate_batch=_eval_batch)


def _log_sin_pi_half(x: complex) -> complex | None:
    """log(sin(pi x / 2)) with exact argument reduction.

    Returns None when the sine vanishes exactly (x an even integer), so the
    caller can short-circuit to zero.  Large |Im| is handled through the
    dominant exponential to avoid overflow.
    """
    half = x / 2.0
    n = round(half.real)
    rho = half - n
    w = math.pi * rho
    extra = complex(0.0, math.pi) if n % 2 else 0.0 + 0.0j
    if abs(w.imag) <= 20.0:
        val = cmath.sin(w)
        if val == 0:
            return None
        return cmath.log(val) + extra
    if w.imag > 0.0:
        # sin w = (i/2) e^{-iw} (1 - e^{2iw})
        return complex(-_LN2, 0.5 * math.pi) - 1j * w + cmath.log(1.0 - cmath.exp(2j * w)) + extra
    return complex(-_LN2, -0.5 * math.pi) + 1j * w + cmath.log(1.0 - cmath.exp(-2j * w)) + extra


def zeta_functional(x: complex, inner: TargetFunction) -> complex:
    """zeta(x) = 2^x pi^(x-1) sin(pi x/2) Gamma(1-x) zeta(1-x) for Re(x) < 0.5.

    Assembled in log space: Gamma(1-x) alone overflows doubles well inside
    the probe range, while the full product stays representable.
    """
    xc = complex(x)
    if xc.real >= 0.5:
        raise DomainError(f"functional equation is used for Re(x) < 0.5, got {xc!r}")
    log_sin = _log_sin_pi_half(xc)
    if log_sin is None:
        return 0.0 + 0.0j
    inner_val = complex(inner.evaluate(np.array([1.0 - xc], dtype=np.complex128))[0])
    if inner_val == 0:
        return 0.0 + 0.0j
    total = (
        xc * _LN2
        + (xc - 1.0) * _LN_PI
        + log_sin
        + log_gamma_complex(1.0 - xc)
        + cmath.log(inner_val)
    )
    if total.real > 700.0:
        raise OverflowError(
            f"zeta functional-equation product has log-magnitude {total.real:.1f} > 700"
        )
    return cmath.exp(total)


def zeta_functional_target(k: int = 50) -> TargetFunction:
    """1-d target wrapping the functional-equation evaluator around
    hasse_zeta(k) (for probes)."""
    inner = hasse_zeta(k)

    def _eval(v: np.ndarray) -> np.ndarray:
        return np.array([zeta_functional(complex(v[0]), inner)], dtype=np.complex128)

    return TargetFunction("zeta-func", 1, _eval, truncation_k=k)


def _kernel_target(
    name: str, dimension: int, kernel: Callable[..., list[complex]]
) -> TargetFunction:
    # the target kernel(*v) at a complex128 vector v; a batch runs it row by
    # row, a failing row does not stop the block, and the first failure is
    # raised with every row's value as its batch_values
    def evaluate(v: np.ndarray) -> np.ndarray:
        return np.array(kernel(*v.tolist()), dtype=np.complex128)

    def evaluate_batch(x: np.ndarray) -> np.ndarray:
        values: list[list[complex] | None] = []
        failure = None
        for row in x.tolist():
            try:
                values.append(kernel(*row))
            except TARGET_FAILURES as exc:
                failure = failure or exc
                values.append(None)
        if failure is not None:
            failure.batch_values = values
            raise failure
        return np.array(values, dtype=np.complex128)

    return TargetFunction(name, dimension, evaluate, evaluate_batch=evaluate_batch)


def example3_system() -> TargetFunction:
    """2-d exponential-sine benchmark system."""
    quarter_pi_inv = 1.0 / (4.0 * math.pi)
    e = math.e

    def kernel(x1: complex, x2: complex) -> list[complex]:
        try:
            f1 = 0.5 * x1 * (cmath.sin(x1 * x2) - 1.0) - quarter_pi_inv * x2
            f2 = (1.0 - quarter_pi_inv) * (cmath.exp(2.0 * x1) - e) + e * (
                x2 / math.pi - 2.0 * x1
            )
        except ValueError as exc:
            # cmath's domain error on an overflowed argument, e.g. x1 x2 = inf
            raise EvaluationError(f"example3 is undefined at ({x1!r}, {x2!r})") from exc
        return [f1, f2]

    return _kernel_target("example3", 2, kernel)


def polynomial(coeffs: Sequence[complex]) -> TargetFunction:
    """Polynomial target from descending coefficients, evaluated by Horner."""
    cs = [complex(c) for c in coeffs]
    if not cs:
        raise DomainError("polynomial needs at least one coefficient")
    if cs[0] == 0:
        raise DomainError("leading coefficient must be nonzero")

    def kernel(z: complex) -> list[complex]:
        acc = cs[0]
        for c in cs[1:]:
            acc = acc * z + c
        return [acc]

    return _kernel_target("poly", 1, kernel)


def parse_complex(text: str) -> complex:
    """Parse a shell-safe complex literal: 'a', 'a+bi', 'a-bi' (no spaces)."""
    s = text.strip()
    if not s or any(ch.isspace() for ch in s):
        raise DomainError(f"bad complex literal {text!r}")
    try:
        value = complex(s.replace("i", "j"))
    except ValueError:
        raise DomainError(f"bad complex literal {text!r}") from None
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise DomainError(f"complex literal must be finite, got {text!r}")
    return value


def parse_complex_vector(text: str) -> np.ndarray:
    parts = text.split(",")
    return np.array([parse_complex(p) for p in parts], dtype=np.complex128)


def make_target(name: str, k: int = 50, coeffs=None) -> TargetFunction:
    """Look up a target by registry name.

    poly takes coefficients either as a sequence or as a comma-separated
    string of complex literals ("1,0,1" is x^2 + 1).
    """
    if name == "ci":
        return ci_series(k)
    if name == "si":
        return si_series(k)
    if name == "zeta-hasse":
        return hasse_zeta(k)
    if name == "example3":
        return example3_system()
    if name == "poly":
        if coeffs is None:
            raise DomainError("poly target needs coefficients")
        if isinstance(coeffs, str):
            coeffs = parse_complex_vector(coeffs)
        return polynomial(list(coeffs))
    raise DomainError(f"unknown target {name!r}; known names: {', '.join(REGISTRY_NAMES)}")
