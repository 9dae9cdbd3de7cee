import cmath
import math
import random

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from fracroots.errors import DomainError, PoleError
from fracroots.specfun import (
    beta,
    binomial,
    gamma_real,
    incomplete_beta_regularized,
    log_gamma_complex,
)

mp.mp.dps = 30


class TestGammaReal:
    def test_classical_values(self):
        assert gamma_real(1.0) == 1.0
        assert gamma_real(5.0) == 24.0
        assert abs(gamma_real(0.5) - math.sqrt(math.pi)) < 1e-15

    @pytest.mark.parametrize("x", [0.0, -1.0, -2.0, -17.0])
    def test_poles(self, x):
        with pytest.raises(PoleError):
            gamma_real(x)

    def test_overflow(self):
        with pytest.raises(OverflowError):
            gamma_real(172.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            gamma_real(math.nan)

    def test_reflection_identity(self):
        # Gamma(x) Gamma(1-x) sin(pi x) / pi == 1 on (0, 1)
        rng = random.Random(101)
        for _ in range(200):
            x = rng.uniform(1e-3, 1.0 - 1e-3)
            value = gamma_real(x) * gamma_real(1.0 - x) * math.sin(math.pi * x) / math.pi
            assert abs(value - 1.0) < 1e-11

    def test_recurrence(self):
        rng = random.Random(202)
        count = 0
        while count < 200:
            x = rng.uniform(-5.0, 5.0)
            if min(abs(x - round(x)), abs(x + 1 - round(x + 1))) < 0.01 or abs(x) < 0.01:
                continue
            count += 1
            lhs = gamma_real(x + 1.0)
            rhs = x * gamma_real(x)
            assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    def test_large_arguments_accurate(self):
        for x in (150.3, -150.3, 170.0, -170.5):
            ref = float(mp.gamma(x))
            assert abs(gamma_real(x) - ref) <= 1e-13 * abs(ref)


class TestLogGammaComplex:
    def test_trivial_points(self):
        assert abs(log_gamma_complex(1 + 0j)) < 1e-14
        val = log_gamma_complex(0.5 + 0j)
        assert abs(val - math.log(math.sqrt(math.pi))) < 1e-14

    def test_exp_matches_oracle_at_1_plus_i(self):
        # oracle: 30-digit loggamma, compared through the exponential
        mine = cmath.exp(log_gamma_complex(1 + 1j))
        ref = complex(mp.exp(mp.loggamma(mp.mpc(1, 1))))
        assert abs(mine - ref) < 1e-10

    def test_exp_matches_gamma_real_on_axis(self):
        for x in (0.1, 0.7, 1.0, 2.5, 17.0, 120.4, -0.5, -3.3, -25.7):
            mine = cmath.exp(log_gamma_complex(complex(x, 0.0)))
            ref = gamma_real(x)
            assert abs(mine - ref) <= 1e-12 * abs(ref)
            assert abs(mine.imag) <= 1e-12 * abs(ref)

    def test_principal_value_both_half_planes(self):
        points = [2 + 3j, 0.5 - 7j, -0.5 + 0.3j, -4.2 - 2.5j, -20.3 + 0.01j, 40 - 11j]
        for z in points:
            ref = complex(mp.loggamma(mp.mpc(z)))
            assert abs(log_gamma_complex(z) - ref) <= 1e-12 * max(abs(ref), 1.0)

    @pytest.mark.parametrize("x", [-0.5, -2.5, -25.7])
    def test_negative_axis_uses_upper_side_for_both_zeros(self, x):
        # scipy.special.loggamma puts Im = -0.0 below the cut
        assert log_gamma_complex(complex(x, -0.0)) == log_gamma_complex(complex(x, 0.0))

    @pytest.mark.parametrize("z", [0j, -1 + 0j, -6 + 0j])
    def test_poles(self, z):
        with pytest.raises(PoleError):
            log_gamma_complex(z)


class TestBeta:
    def test_classical_values(self):
        assert beta(1.0, 1.0) == 1.0
        assert abs(beta(2.0, 3.0) - 1.0 / 12.0) < 1e-16
        assert abs(beta(0.5, 0.5) - math.pi) < 1e-13

    def test_against_quadrature(self):
        for p, q in [(0.3, 2.7), (1.5, 1.5), (4.0, 0.2), (7.3, 5.1)]:
            ref, _ = quad(lambda t: t ** (p - 1) * (1 - t) ** (q - 1), 0, 1, limit=200)
            assert abs(beta(p, q) - ref) <= 1e-10 * abs(ref)

    @given(
        st.floats(min_value=0.1, max_value=60.0),
        st.floats(min_value=0.1, max_value=60.0),
    )
    def test_symmetry(self, p, q):
        assert beta(p, q) == pytest.approx(beta(q, p), rel=1e-13)

    @pytest.mark.parametrize("p,q", [(0.0, 1.0), (-1.0, 2.0), (1.0, -0.5)])
    def test_domain(self, p, q):
        with pytest.raises(DomainError):
            beta(p, q)


class TestIncompleteBeta:
    """The regularized incomplete beta I_r(p, q) = B_r(p, q) / B(p, q)."""

    def test_edge_values(self):
        assert incomplete_beta_regularized(0.0, 3.2, 0.7) == 0.0
        assert incomplete_beta_regularized(1.0, 2.0, 3.0) == 1.0
        assert abs(incomplete_beta_regularized(0.5, 1.0, 1.0) - 0.5) < 1e-15

    def test_against_quadrature(self):
        rng = random.Random(7)
        for _ in range(25):
            p = rng.uniform(0.2, 6.0)
            q = rng.uniform(0.2, 6.0)
            r = rng.uniform(0.01, 0.99)
            # quad's default tolerance of 1.5e-8 would exceed 1e-10 once divided by B(p, q)
            ref, _ = quad(
                lambda t: t ** (p - 1) * (1 - t) ** (q - 1), 0, r, epsabs=0.0, epsrel=1e-12,
                limit=200,
            )
            assert abs(incomplete_beta_regularized(r, p, q) - ref / beta(p, q)) <= 1e-10

    def test_matches_full_beta_at_one(self):
        # B_1(p, q) = B(p, q): exactly 1 at r = 1, and continuous up to it
        for p, q in [(0.4, 3.0), (2.2, 1.1), (5.0, 5.0)]:
            assert incomplete_beta_regularized(1.0, p, q) == 1.0
            assert abs(incomplete_beta_regularized(1.0 - 1e-12, p, q) - 1.0) <= 1e-10

    @settings(max_examples=60)
    @given(
        st.floats(min_value=0.01, max_value=0.99),
        st.floats(min_value=0.01, max_value=0.99),
        st.floats(min_value=0.3, max_value=8.0),
        st.floats(min_value=0.3, max_value=8.0),
    )
    def test_monotone_in_r(self, r1, r2, p, q):
        lo, hi = sorted((r1, r2))
        regularized = incomplete_beta_regularized
        assert regularized(lo, p, q) <= regularized(hi, p, q) + 1e-14

    def test_regularized_range(self):
        # values in [0, 1], and I_r(p, q) + I_(1-r)(q, p) = 1
        for r, p, q in [(0.3, 2.0, 5.0), (0.05, 0.4, 3.0), (0.9, 7.5, 0.3)]:
            value = incomplete_beta_regularized(r, p, q)
            mirror = incomplete_beta_regularized(1.0 - r, q, p)
            assert 0.0 <= value <= 1.0
            assert value + mirror == pytest.approx(1.0, rel=1e-13)

    @pytest.mark.parametrize("args", [(-0.1, 1, 1), (1.1, 1, 1), (0.5, 0, 1), (0.5, 1, -2)])
    def test_domain(self, args):
        with pytest.raises(DomainError):
            incomplete_beta_regularized(*args)


class TestBinomial:
    def test_values(self):
        assert binomial(50, 0) == 1
        assert binomial(5, 2) == 10
        assert binomial(50, 25) == 126410606437752

    def test_against_math_comb(self):
        for m in range(0, 61, 7):
            for p in range(0, m + 1, 3):
                assert binomial(m, p) == math.comb(m, p)

    @given(st.integers(min_value=1, max_value=60), st.data())
    def test_pascal_recurrence(self, m, data):
        p = data.draw(st.integers(min_value=1, max_value=m - 1)) if m > 1 else 0
        if p == 0:
            assert binomial(m, 0) == 1
        else:
            assert binomial(m, p) == binomial(m - 1, p - 1) + binomial(m - 1, p)

    @pytest.mark.parametrize("m,p", [(3, 4), (61, 2), (-1, 0), (5, -1)])
    def test_domain(self, m, p):
        with pytest.raises(DomainError):
            binomial(m, p)
