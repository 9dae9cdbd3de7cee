import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracroots.errors import DomainError, QuadratureError
from fracroots.fracderiv import (
    FracOrder,
    PowerFunctionSpec,
    complex_power,
    rl_deriv_constant,
    rl_deriv_monomial,
    rl_deriv_shifted_power,
    rl_deriv_via_quadrature,
    rl_integral_quadrature,
    semigroup_check,
)
from fracroots.validation import (
    monomial_oracle_suite,
    prop2_limit_suite,
    semigroup_suite,
)

SQRT_PI = math.sqrt(math.pi)


class TestFracOrder:
    @pytest.mark.parametrize("alpha", [1.0, 0.0, -2.0, 1.0 + 4e-10])
    def test_rejects_integers(self, alpha):
        with pytest.raises(DomainError):
            FracOrder(alpha)

    def test_ceiling(self):
        assert FracOrder(0.5).n_ceiling == 1
        assert FracOrder(1.5).n_ceiling == 2
        assert FracOrder(-0.5).n_ceiling == 0
        assert FracOrder(-1.2).n_ceiling == 0


class TestPowerFunctionSpec:
    def test_rejects_bad_mu(self):
        with pytest.raises(DomainError):
            PowerFunctionSpec(mu=-1.0, c=0.0, a=0.0)

    def test_rejects_terminal_left_of_shift(self):
        with pytest.raises(DomainError):
            PowerFunctionSpec(mu=1.0, c=1.0, a=0.0)


class TestComplexPower:
    def test_positive_real_axis_stays_real(self):
        value = complex_power(2 + 0j, -0.5 + 0j)
        assert value.imag == 0.0
        assert value.real == pytest.approx(2 ** -0.5, rel=1e-15)

    def test_principal_branch_for_i(self):
        # i^(-1/2) = exp(-i pi/4)
        value = complex_power(1j, -0.5)
        assert value.real == pytest.approx(math.cos(math.pi / 4), rel=1e-14)
        assert value.imag == pytest.approx(-math.sin(math.pi / 4), rel=1e-14)

    def test_zero_base_rejected(self):
        with pytest.raises(DomainError):
            complex_power(0j, 0.5)


class TestIntegralQuadrature:
    def test_ordinary_integrals(self):
        assert rl_integral_quadrature(lambda t: 1.0, 0.0, 1.0, 1.0) == pytest.approx(1.0, abs=1e-12)
        assert rl_integral_quadrature(lambda t: t, 0.0, 1.0, 1.0) == pytest.approx(0.5, abs=1e-12)

    def test_half_order_of_t(self):
        # closed form Gamma(2)/Gamma(2.5) x^1.5 at x=1
        expected = 1.0 / math.gamma(2.5)
        value = rl_integral_quadrature(lambda t: t, 0.0, 1.0, 0.5, rel_tol=1e-10)
        assert value == pytest.approx(expected, rel=1e-10)
        assert expected == pytest.approx(0.7522527780636751, rel=1e-12)

    def test_monomial_closed_form_random_orders(self):
        for mu, alpha, x in [(0.5, 0.7, 2.0), (2.0, 1.3, 0.7), (-0.4, 0.9, 3.0)]:
            expected = (
                math.gamma(mu + 1.0) / math.gamma(mu + alpha + 1.0) * x ** (mu + alpha)
            )
            value = rl_integral_quadrature(
                lambda t: t ** mu if t > 0 else 0.0, 0.0, x, alpha, rel_tol=1e-10
            )
            assert value == pytest.approx(expected, rel=1e-8)

    def test_preconditions(self):
        with pytest.raises(DomainError):
            rl_integral_quadrature(lambda t: 1.0, 0.0, 1.0, -0.5)
        with pytest.raises(DomainError):
            rl_integral_quadrature(lambda t: 1.0, 1.0, 1.0, 0.5)

    def test_unintegrable_oscillation_raises(self):
        with pytest.raises(QuadratureError):
            rl_integral_quadrature(
                lambda t: math.sin(1.0 / max(t, 1e-320)) / max(t, 1e-320),
                0.0,
                1.0,
                0.5,
                rel_tol=1e-10,
            )


class TestSemigroup:
    def test_constant_half_half(self):
        # both sides equal I^1 1 = x
        gap = semigroup_check(lambda t: 1.0, 0.0, 1.0, 0.5, 0.5)
        assert gap <= 1e-6

    def test_square_three_seven(self):
        gap = semigroup_check(lambda t: t * t, 0.0, 2.0, 0.3, 0.7)
        assert gap <= 1e-6

    def test_sine_quarter_half(self):
        gap = semigroup_check(math.sin, 0.0, 1.0, 0.25, 0.5)
        assert gap <= 1e-5

    def test_fixed_suite(self):
        ok, detail = semigroup_suite()
        assert ok, detail


class TestShiftedPower:
    def test_prop2_case_mu_one(self):
        spec = PowerFunctionSpec(mu=1.0, c=0.0, a=0.0)
        value = rl_deriv_shifted_power(spec, FracOrder(0.5), 1.0)
        assert value == pytest.approx(2.0 / SQRT_PI, rel=1e-12)
        assert value == pytest.approx(1.1283791670955126, rel=1e-12)

    def test_prop2_case_mu_zero(self):
        spec = PowerFunctionSpec(mu=0.0, c=0.0, a=0.0)
        value = rl_deriv_shifted_power(spec, FracOrder(0.5), 4.0)
        assert value == pytest.approx(0.5 / SQRT_PI, rel=1e-12)
        assert value == pytest.approx(0.28209479177387814, rel=1e-12)

    @pytest.mark.parametrize(
        "mu,c,a,alpha,x",
        [
            pytest.param(2.0, -1.0, 0.0, -0.5, 1.0, id="shifted"),
            # a = c, so r = 0 and the incomplete-beta factor is exactly 1
            pytest.param(1.5, -0.5, -0.5, -0.7, 1.0, id="terminal-at-shift"),
            pytest.param(-0.4, -1.0, 0.0, -0.6, 1.5, id="mu-between-minus-1-and-0"),
            pytest.param(0.5, -1.0, 0.0, -1.4, 2.0, id="alpha-between-minus-2-and-minus-1"),
        ],
    )
    def test_negative_order_against_quadrature(self, mu, c, a, alpha, x):
        # n = ceil(alpha) = 0: the Leibniz sum is its single incomplete-beta term
        spec = PowerFunctionSpec(mu=mu, c=c, a=a)
        value = rl_deriv_shifted_power(spec, FracOrder(alpha), x)
        oracle = rl_integral_quadrature(lambda t: (t - c) ** mu, a, x, -alpha, rel_tol=1e-10)
        assert value == pytest.approx(oracle, rel=1e-8)

    def test_terminal_far_from_the_shift(self):
        # r = (a-c)/(x-c) rounds to 1.0, so G = 1 - I_r(m, b) would cancel to
        # 0; the value, I^0.5 of (t + 1e16)^2 at 0.5, is mpmath quadrature's
        spec = PowerFunctionSpec(mu=2.0, c=-1e16, a=0.0)
        value = rl_deriv_shifted_power(spec, FracOrder(-0.5), 0.5)
        assert value == pytest.approx(7.978845608028654e31, rel=1e-8)

    @pytest.mark.parametrize("alpha", [0.5, -0.5])
    def test_large_mu_does_not_overflow(self, alpha):
        # Gamma(181) overflows a double, Gamma(181)/Gamma(181 - alpha) does not
        spec = PowerFunctionSpec(mu=180.0, c=0.0, a=0.0)
        value = rl_deriv_shifted_power(spec, FracOrder(alpha), 1.0)
        expected = {0.5: 13.42572803871614, -0.5: 0.07438076475743012}[alpha]
        assert value == pytest.approx(expected, rel=1e-12)

    def test_first_order_needs_no_second_derivative(self):
        # r = 1e-250: r^(mu - 1) in the second x-derivative of G overflows,
        # but an order in (0, 1) uses G and its first derivative only.  G is
        # 1 to within 1e-120, so the value is the monomial rule's.
        spec = PowerFunctionSpec(mu=-0.5, c=0.0, a=1e-250)
        value = rl_deriv_shifted_power(spec, FracOrder(0.3), 1.0)
        limit = rl_deriv_monomial(-0.5, FracOrder(0.3), 1.0).real
        assert value == pytest.approx(limit, rel=1e-12)

    @pytest.mark.parametrize(
        "mu,c,alpha,x",
        [
            (1.5, -0.5, 0.7, 2.0),
            (0.3, -1.0, 0.4, 1.5),
            (2.0, -0.25, 1.3, 2.5),
            (1.0, -2.0, 1.7, 1.2),  # r = 0.625, where G is I_(1-r)(b, m)
        ],
    )
    def test_positive_order_leibniz_against_oracle(self, mu, c, alpha, x):
        # shifted terminal (a=0 > c) exercises the incomplete-beta derivatives
        spec = PowerFunctionSpec(mu=mu, c=c, a=0.0)
        value = rl_deriv_shifted_power(spec, FracOrder(alpha), x)
        oracle = rl_deriv_via_quadrature(
            lambda t: (t - c) ** mu, 0.0, x, alpha, rel_tol=1e-12
        )
        assert value == pytest.approx(oracle, rel=1e-5)

    def test_prop2_limit_monotone(self):
        ok, detail = prop2_limit_suite()
        assert ok, detail

    def test_requires_x_beyond_terminal(self):
        spec = PowerFunctionSpec(mu=1.0, c=0.0, a=1.0)
        with pytest.raises(DomainError):
            rl_deriv_shifted_power(spec, FracOrder(0.5), 0.5)


class TestMonomial:
    def test_constant_rule_value(self):
        value = rl_deriv_monomial(0.0, FracOrder(0.5), 1 + 0j)
        assert value.real == pytest.approx(1.0 / SQRT_PI, rel=1e-13)
        assert value.real == pytest.approx(0.5641895835477563, rel=1e-13)
        assert value.imag == 0.0

    def test_linear_rule_value(self):
        value = rl_deriv_monomial(1.0, FracOrder(0.5), 1 + 0j)
        assert value.real == pytest.approx(2.0 / SQRT_PI, rel=1e-13)

    def test_integer_order_rejected(self):
        with pytest.raises(DomainError):
            rl_deriv_monomial(3.0, FracOrder(1.0), 1 + 0j)

    def test_zero_point(self):
        assert rl_deriv_monomial(2.0, FracOrder(0.5), 0j) == 0j
        with pytest.raises(DomainError):
            rl_deriv_monomial(0.2, FracOrder(0.5), 0j)

    def test_classical_limit_near_one(self):
        # continuity in the order: D^alpha x^2 -> 2x as alpha -> 1
        for alpha in (1.0 - 1e-6, 1.0 + 1e-6):
            for x in (0.8, 1.7, 3.0):
                value = rl_deriv_monomial(2.0, FracOrder(alpha), complex(x))
                assert value.real == pytest.approx(2.0 * x, rel=1e-4)

    def test_large_mu_does_not_overflow(self):
        # Gamma(181)/Gamma(180.5), though Gamma(181) overflows a double
        value = rl_deriv_monomial(180.0, FracOrder(0.5), 1.0)
        assert value.real == pytest.approx(13.42572803871614, rel=1e-12)
        assert value.imag == 0.0

    def test_oracle_equivalence_hundred_cases(self):
        ok, detail = monomial_oracle_suite()
        assert ok, detail


class TestConstantKernel:
    def test_half_order_at_one(self):
        value = rl_deriv_constant(1.0, FracOrder(0.5), 1 + 0j)
        assert value.real == pytest.approx(0.5641895835477563, rel=1e-13)

    def test_vanishes_as_order_tends_to_one(self):
        value = rl_deriv_constant(1.0, FracOrder(0.99999), 2 + 0j)
        assert abs(value) < 1e-4

    def test_linearity_in_constant(self):
        assert rl_deriv_constant(0.0, FracOrder(-1.3), 5 + 2j) == 0j

    def test_principal_branch_at_i(self):
        value = rl_deriv_constant(1.0, FracOrder(0.5), 1j)
        assert abs(value) == pytest.approx(1.0 / SQRT_PI, rel=1e-13)
        assert value.real == pytest.approx(0.3989422804014327, rel=1e-12)
        assert value.imag == pytest.approx(-0.3989422804014327, rel=1e-12)

    def test_zero_point_rejected(self):
        with pytest.raises(DomainError):
            rl_deriv_constant(1.0, FracOrder(0.5), 0j)

    @settings(max_examples=80)
    @given(
        st.floats(min_value=1e-3, max_value=1e3),
        st.sampled_from([-1.7, -0.9, -0.3, 0.25, 0.5, 1.4, 1.9]),
    )
    def test_real_positive_points_stay_real(self, x, alpha):
        value = rl_deriv_constant(1.0, FracOrder(alpha), complex(x, 0.0))
        assert value.imag == 0.0

