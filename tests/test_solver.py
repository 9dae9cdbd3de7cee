import cmath
import dataclasses
import math
import pickle
import struct
import sys
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracroots import solver
from fracroots.errors import DomainError, EvaluationError, InsufficientDataError, NumericalFailureError
from fracroots.fracderiv import (
    INTEGER_GUARD,
    FracOrder,
    complex_power,
    recip_gamma,
    rl_deriv_constant,
)
from fracroots.solver import (
    DIVERGENCE_BOUND,
    FpnConfig,
    IterationTrace,
    RootRecord,
    SolveStatus,
    _norm,
    _snap,
    _step,
    as_complex_vector,
    build_p_matrix,
    estimate_convergence_order,
    fpn_solve,
    fpn_step,
    round_iterate,
)
from fracroots.sweep import AlphaGrid, run_sweep
from fracroots.targets import TargetFunction, ci_series, example3_system, make_target, polynomial


def vec(*zs):
    return np.array(zs, dtype=np.complex128)


class TestFpnConfig:
    def test_defaults(self):
        cfg = FpnConfig(alpha=0.5)
        assert cfg.epsilon == 1e-3
        assert cfg.tol_step == 1e-6
        assert cfg.tol_residual == 1e-6
        assert cfg.max_iter == 500
        assert cfg.round_exponent_m == 5

    def test_fields(self):
        # the divergence bound is a module constant, not a knob
        names = [f.name for f in dataclasses.fields(FpnConfig)]
        assert names == [
            "alpha", "epsilon", "tol_step", "tol_residual", "max_iter", "round_exponent_m"
        ]
        assert DIVERGENCE_BOUND == 1e10
        with pytest.raises(TypeError):
            FpnConfig(alpha=0.5, divergence_bound=1e3)

    @pytest.mark.parametrize("alpha", [1.0, -2.0, 0.0, 2.0, 2.5, 1.0 + 3e-10])
    def test_alpha_validation(self, alpha):
        with pytest.raises(DomainError):
            FpnConfig(alpha=alpha)

    def test_zero_epsilon_allowed(self):
        assert FpnConfig(alpha=0.5, epsilon=0.0).epsilon == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epsilon": -1e-3},
            {"tol_step": 0.0},
            {"tol_residual": -1.0},
            {"max_iter": 0},
            {"round_exponent_m": 0},
            {"tol_residual": math.nan},
            {"epsilon": math.inf},
            {"epsilon": math.nan},
            {"tol_step": math.inf},
            {"tol_residual": math.inf},
            {"tol_step": math.nan},
        ],
    )
    def test_knob_validation(self, kwargs):
        with pytest.raises(DomainError):
            FpnConfig(alpha=0.5, **kwargs)


class TestBetaExponent:
    """P's exponent beta is alpha away from the origin and 1 at it, where the
    entry z^(-1)/Gamma(0) + epsilon is exactly epsilon.  The zero test is
    exact: sqrt(z conj(z)) > 0."""

    def test_nonzero_point_keeps_alpha(self):
        diag = build_p_matrix(vec(3 + 4j), FpnConfig(alpha=0.5, epsilon=1e-3))
        assert diag[0] == recip_gamma(0.5) * complex_power(3 + 4j, -0.5) + 1e-3

    def test_zero_point_switches_to_one(self):
        diag = build_p_matrix(vec(0 + 0j), FpnConfig(alpha=0.5, epsilon=1e-3))
        assert diag[0] == 1e-3 + 0j

    def test_tiny_but_nonzero_keeps_alpha(self):
        diag = build_p_matrix(vec(1e-300 + 0j), FpnConfig(alpha=0.5, epsilon=1e-3))
        assert diag[0] == recip_gamma(0.5) * 1e150 + 1e-3

    def test_signed_zero_is_zero(self):
        diag = build_p_matrix(vec(complex(-0.0, 0.0)), FpnConfig(alpha=0.5, epsilon=1e-3))
        assert _bits(diag) == _bits([1e-3])


class TestBuildPMatrix:
    def test_unit_point(self):
        diag = build_p_matrix(vec(1 + 0j), FpnConfig(alpha=0.5, epsilon=1e-3))
        assert diag[0].real == pytest.approx(0.5651895835477563, rel=1e-13)
        assert diag[0].imag == 0.0

    def test_zero_component_collapses_to_epsilon(self):
        diag = build_p_matrix(vec(0 + 0j), FpnConfig(alpha=0.5, epsilon=1e-3))
        assert diag[0] == 1e-3 + 0j

    def test_componentwise_combination(self):
        diag = build_p_matrix(vec(1 + 0j, 0 + 0j), FpnConfig(alpha=0.5, epsilon=1e-3))
        assert diag[0].real == pytest.approx(0.5651895835477563, rel=1e-13)
        assert diag[1] == 1e-3 + 0j

    def test_matches_constant_kernel(self):
        cfg = FpnConfig(alpha=-1.3, epsilon=1e-3)
        diag = build_p_matrix(vec(2.5 + 1j), cfg)
        # the P entries write out rl_deriv_constant's formula, and keep its bits
        expected = complex(rl_deriv_constant(1.0, FracOrder(-1.3), 2.5 + 1j)) + 1e-3
        assert diag[0] == expected

    def test_overflowing_entry_fails(self):
        # in build_p_matrix and in the update kernel fpn_step runs
        with pytest.raises(NumericalFailureError):
            build_p_matrix(vec(1e-300 + 0j), FpnConfig(alpha=1.9))
        with pytest.raises(NumericalFailureError):
            fpn_step(vec(1e-300 + 0j), polynomial([1, -1]), FpnConfig(alpha=1.9))

    @pytest.mark.parametrize("z", [complex(math.inf, 0.0), complex(math.nan, 0.0)])
    def test_point_that_is_not_finite_is_rejected(self, z):
        # as an initial condition is; at inf + 0j the entry would be epsilon
        with pytest.raises(DomainError, match="^point must be finite$"):
            build_p_matrix(vec(1 + 0j, z), FpnConfig(alpha=0.5))

    @settings(max_examples=50)
    @given(st.floats(min_value=1e-3, max_value=1e4))
    def test_real_positive_entries_are_real(self, x):
        diag = build_p_matrix(vec(complex(x, 0.0)), FpnConfig(alpha=0.5))
        assert diag[0].imag == 0.0


class TestAsComplexVector:
    def test_complex_vector_is_returned_unchanged(self):
        v = vec(1 + 2j, 3)
        assert as_complex_vector(v) is v

    def test_two_dimensional_input_is_rejected(self):
        with pytest.raises(DomainError, match="expected a 1-d complex vector"):
            as_complex_vector(np.zeros((2, 2), dtype=np.complex128))


class TestRoundIterate:
    def test_snaps_small_imaginary(self):
        out = round_iterate(vec(3 + 1e-7j), 5)
        assert out[0] == 3 + 0j

    def test_keeps_large_imaginary(self):
        out = round_iterate(vec(3 + 1e-3j), 5)
        assert out[0] == 3 + 1e-3j

    def test_threshold_is_inclusive(self):
        out = round_iterate(vec(1 + 1e-5j), 5)
        assert out[0] == 1 + 0j

    def test_leaves_critical_line_points(self):
        out = round_iterate(vec(0.5 + 14.13j), 5)
        assert out[0] == 0.5 + 14.13j

    @settings(max_examples=60)
    @given(
        st.complex_numbers(
            min_magnitude=0, max_magnitude=1e6, allow_nan=False, allow_infinity=False
        ),
        st.integers(min_value=1, max_value=12),
    )
    def test_idempotent(self, z, m):
        once = round_iterate(vec(z), m)
        twice = round_iterate(once, m)
        assert np.array_equal(once, twice)


class TestFpnStep:
    def test_hand_computed_step(self):
        # f(x) = x - 1 at x=2, alpha=0.5, eps=0:
        # 2 - 2^(-1/2)/Gamma(1/2) = 2 - 1/sqrt(2 pi)
        f = polynomial([1, -1])
        cfg = FpnConfig(alpha=0.5, epsilon=0.0)
        out = fpn_step(vec(2 + 0j), f, cfg)
        expected = 2.0 - 1.0 / math.sqrt(2.0 * math.pi)
        assert out[0].real == pytest.approx(expected, rel=1e-14)
        assert out[0].real == pytest.approx(1.6010577195985674, rel=1e-14)
        oracle = 2.0 - complex(rl_deriv_constant(1.0, FracOrder(0.5), 2 + 0j))
        assert out[0] == pytest.approx(oracle, rel=1e-14)

    def test_stationary_at_root(self):
        f = polynomial([1, 0, -1])  # x^2 - 1, root at 1
        cfg = FpnConfig(alpha=0.7)
        out = fpn_step(vec(1 + 0j), f, cfg)
        assert np.array_equal(out, round_iterate(vec(1 + 0j), cfg.round_exponent_m))

    def test_zero_point_with_zero_residual(self):
        f = polynomial([1, 0])  # f(x) = x
        out = fpn_step(vec(0 + 0j), f, FpnConfig(alpha=0.5, epsilon=1e-3))
        assert out[0] == 0j


class TestFpnSolve:
    def test_quadratic_converges(self):
        f = polynomial([1, 0, -1])
        record, trace = fpn_solve(f, vec(3 + 0j), FpnConfig(alpha=0.8))
        assert record.status is SolveStatus.Converged
        assert abs(record.root[0] - 1.0) < 1e-5
        assert record.residual_norm < 1e-6
        # re-verify the residual by direct evaluation
        assert float(np.linalg.norm(f.evaluate(record.root))) <= 1e-6
        assert len(trace.iterates) == record.iterations + 1
        assert len(trace.step_norms) == record.iterations

    def test_start_at_root(self):
        f = polynomial([1, 0, -1])
        record, _ = fpn_solve(f, vec(1 + 0j), FpnConfig(alpha=0.8))
        assert record.status is SolveStatus.Converged
        assert record.iterations <= 1
        assert record.root[0] == 1 + 0j

    def test_divergence_detected(self):
        f = polynomial([-1, 0, 0, 0])  # f(x) = -x^3, runaway growth
        record, _ = fpn_solve(f, vec(2 + 0j), FpnConfig(alpha=0.5, epsilon=0.0))
        assert record.status is SolveStatus.Diverged

    def test_max_iterations(self):
        f = polynomial([1, 0, -1])
        record, _ = fpn_solve(f, vec(3 + 0j), FpnConfig(alpha=0.8, max_iter=3))
        assert record.status is SolveStatus.MaxIterations
        assert record.iterations == 3

    def test_evaluation_error_becomes_numerical_failure(self):
        f = ci_series(10)  # log singularity at 0
        record, _ = fpn_solve(f, vec(0 + 0j), FpnConfig(alpha=0.5))
        assert record.status is SolveStatus.NumericalFailure
        assert record.iterations == 0

    def test_target_domain_error_becomes_numerical_failure(self):
        # x1 x2 overflows to inf, where cmath.sin has a domain error
        f = example3_system()
        x0 = vec(1e172, 1e172)
        record, _ = fpn_solve(f, x0, FpnConfig(alpha=0.7))
        assert record.status is SolveStatus.NumericalFailure
        assert record.iterations == 0
        report = run_sweep(f, x0, AlphaGrid(0.65, 0.8, 0.05), FpnConfig(alpha=0.7))
        assert len(report.records) == 4
        assert {r.status for r in report.records} == {SolveStatus.NumericalFailure}

    def test_dimension_mismatch(self):
        f = polynomial([1, -1])
        with pytest.raises(DomainError):
            fpn_solve(f, vec(1 + 0j, 2 + 0j), FpnConfig(alpha=0.5))

    def test_start_errors_name_the_initial_condition(self):
        # stability_probe shares the check and names its point a probe point
        f = polynomial([1, -1])
        with pytest.raises(DomainError, match="^initial condition has dimension 2, target needs 1$"):
            fpn_solve(f, vec(1 + 0j, 2 + 0j), FpnConfig(alpha=0.5))
        with pytest.raises(DomainError, match="^initial condition must be finite$"):
            fpn_solve(f, vec(complex(math.inf, 0.0)), FpnConfig(alpha=0.5))

    def test_converged_record_invariant(self):
        f = polynomial([1, 0, -2, -5])  # x^3 - 2x - 5
        cfg = FpnConfig(alpha=0.9)
        record, _ = fpn_solve(f, vec(3 + 0j), cfg)
        assert record.status is SolveStatus.Converged
        assert record.step_norm <= cfg.tol_step
        assert record.residual_norm <= cfg.tol_residual

    def test_zeta_series_known_run(self):
        # published run: order 0.04495 from 0.5+31.51i lands on the first
        # nontrivial zero pair (0.50000036 - 14.13472527i)
        from fracroots.targets import hasse_zeta

        record, _ = fpn_solve(
            hasse_zeta(50), vec(0.5 + 31.51j), FpnConfig(alpha=0.04495, epsilon=1e-3)
        )
        assert record.status is SolveStatus.Converged
        root = complex(record.root[0])
        assert min(abs(root - (0.5 + 14.13472527j)), abs(root - (0.5 - 14.13472527j))) < 1e-3
        assert record.residual_norm <= 1e-6


class TestRootRecord:
    @staticmethod
    def _record(**changes):
        rec = RootRecord(0.25, vec(1 + 2j), 1e-7, 2e-7, 12, SolveStatus.Converged)
        return dataclasses.replace(rec, **changes)

    def test_equality(self):
        a = self._record()
        assert a == dataclasses.replace(a)
        assert a != self._record(iterations=13)
        assert a != self._record(status=SolveStatus.MaxIterations)

    def test_replace_keeps_other_fields(self):
        a = self._record()
        b = dataclasses.replace(a, alpha=0.5)
        assert b.alpha == 0.5
        assert (b.root, b.step_norm, b.residual_norm, b.iterations, b.status) == (
            a.root, a.step_norm, a.residual_norm, a.iterations, a.status
        )

    def test_pickle_round_trip(self):
        a = self._record()
        b = pickle.loads(pickle.dumps(a))
        assert _record_bits(b) == _record_bits(a)
        assert b.status is SolveStatus.Converged

    def test_frozen_and_slotted(self):
        a = self._record()
        with pytest.raises(dataclasses.FrozenInstanceError):
            a.alpha = 0.5
        assert not hasattr(a, "__dict__")


class TestConvergenceOrder:
    @staticmethod
    def _trace(step_norms):
        iters = [np.zeros(1, dtype=np.complex128) for _ in range(len(step_norms) + 1)]
        return IterationTrace(
            iterates=iters,
            step_norms=list(step_norms),
            residual_norms=[s * 0.5 for s in step_norms],
        )

    def test_geometric_sequence_is_linear(self):
        order, factor = estimate_convergence_order(
            self._trace([1e-1, 1e-2, 1e-3, 1e-4, 1e-5])
        )
        assert order == pytest.approx(1.0, abs=0.05)
        assert factor == pytest.approx(0.1, rel=0.05)

    def test_quadratic_sequence(self):
        order, _ = estimate_convergence_order(self._trace([1e-1, 1e-2, 1e-4, 1e-8]))
        assert order == pytest.approx(2.0, abs=0.1)

    def test_solver_trace_is_linear(self):
        f = polynomial([1, 0, -1])
        record, trace = fpn_solve(f, vec(3 + 0j), FpnConfig(alpha=0.8))
        assert record.status is SolveStatus.Converged
        order, _ = estimate_convergence_order(trace)
        assert 0.8 <= order <= 1.3

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            estimate_convergence_order(self._trace([1e-1, 1e-2, 1e-3]))
        with pytest.raises(InsufficientDataError):
            estimate_convergence_order(self._trace([]))

    def test_uses_final_decreasing_stretch(self):
        # noisy head, clean geometric tail
        order, _ = estimate_convergence_order(
            self._trace([1e-2, 3e-2, 2e-2, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5])
        )
        assert order == pytest.approx(1.0, abs=0.05)


class TestFixedPointProperty:
    @pytest.mark.parametrize(
        "coeffs,root",
        [
            ([1, 0, -1], 1 + 0j),
            ([1, 0, 1], 1j),
            ([1, 0, -2], math.sqrt(2) + 0j),
        ],
    )
    def test_step_stationary_where_residual_vanishes(self, coeffs, root):
        f = polynomial(coeffs)
        cfg = FpnConfig(alpha=0.6)
        out = fpn_step(vec(root), f, cfg)
        p_diag = build_p_matrix(vec(root), cfg)
        residual = float(np.linalg.norm(f.evaluate(vec(root))))
        bound = max(residual, 1e-15) * float(np.max(np.abs(p_diag))) + 1e-14
        assert float(np.linalg.norm(out - round_iterate(vec(root), cfg.round_exponent_m))) <= bound


# --- reference loop -----------------------------------------------------------
# The solver loop with its per-iteration bookkeeping written out plainly: each
# norm a sum of re*re + im*im over the components in Python floats, the
# update x - P f in split real numpy arithmetic, P entries and rounding
# component by component, and 1/Gamma(1 - alpha) recomputed on every
# iteration.  The solver must reproduce it bit for bit.


def _ref_all_finite(v):
    return bool(np.all(np.isfinite(v.view(np.float64))))


def _ref_norm(v):
    total = 0.0
    for k in range(v.shape[0]):
        zk = complex(v[k])
        total += zk.real * zk.real + zk.imag * zk.imag
    return math.sqrt(total)


def _linalg_norm(v):
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.linalg.norm(v))


def _split_update(x, p, f):
    # x - p f with every real multiply and add rounded on its own, so no
    # complex multiply kernel can fuse them
    u = np.empty_like(x)
    u.real = x.real - (p.real * f.real - p.imag * f.imag)
    u.imag = x.imag - (p.real * f.imag + p.imag * f.real)
    return u


def _ref_p_matrix(x, config):
    rg = recip_gamma(1.0 - config.alpha)
    entries = np.empty(x.shape[0], dtype=np.complex128)
    for k in range(x.shape[0]):
        zk = complex(x[k])
        if zk == 0:
            entries[k] = config.epsilon
        else:
            try:
                entries[k] = rg * complex_power(zk, -config.alpha) + config.epsilon
            except OverflowError as exc:
                raise NumericalFailureError("overflow") from exc
    if not _ref_all_finite(entries):
        raise NumericalFailureError("non-finite entry")
    return entries


def _ref_round(x, m):
    xv = np.array(x, dtype=np.complex128)
    threshold = 10.0 ** (-m)
    for k in range(xv.shape[0]):
        zk = complex(xv[k])
        if abs(zk.imag) <= threshold:
            xv[k] = complex(zk.real, 0.0)
    return xv


def _ref_solve(f, x0, config):
    x = np.atleast_1d(np.asarray(x0, dtype=np.complex128))
    trace = IterationTrace(iterates=[x.copy()])
    step = res = math.inf

    def finish(status, root, iterations):
        record = RootRecord(config.alpha, root.copy(), step, res, iterations, status)
        return record, trace

    def evaluate(v):
        return np.atleast_1d(np.asarray(f.evaluate(v), dtype=np.complex128))

    try:
        fx = evaluate(x)
    except (EvaluationError, OverflowError, ZeroDivisionError):
        return finish(SolveStatus.NumericalFailure, x, 0)
    for i in range(1, config.max_iter + 1):
        try:
            y = _split_update(x, _ref_p_matrix(x, config), fx)
            y = _ref_round(y, config.round_exponent_m)
            if not _ref_all_finite(y):
                raise NumericalFailureError("non-finite iterate")
        except NumericalFailureError:
            return finish(SolveStatus.NumericalFailure, x, i)
        step = _ref_norm(y - x)
        try:
            fy = evaluate(y)
        except (EvaluationError, OverflowError, ZeroDivisionError):
            res = math.inf
            return finish(SolveStatus.NumericalFailure, y, i)
        res = _ref_norm(fy)
        trace.iterates.append(y.copy())
        trace.step_norms.append(step)
        trace.residual_norms.append(res)
        if not math.isfinite(res):
            return finish(SolveStatus.NumericalFailure, y, i)
        if step <= config.tol_step and res <= config.tol_residual:
            return finish(SolveStatus.Converged, y, i)
        if _ref_norm(y) > 1e10:
            return finish(SolveStatus.Diverged, y, i)
        x = y
        fx = fy
    return finish(SolveStatus.MaxIterations, x, config.max_iter)


def _bits(values):
    # float64 bit patterns, with every NaN as one pattern
    flat = np.asarray(values, dtype=np.complex128).view(np.float64).ravel().tolist()
    return ["nan" if math.isnan(v) else struct.pack("<d", v).hex() for v in flat]


def _record_bits(rec):
    return (
        _bits([rec.alpha, rec.step_norm, rec.residual_norm]),
        rec.status,
        rec.iterations,
        _bits(rec.root),
    )


def _trace_bits(trace):
    return (
        [_bits(v) for v in trace.iterates],
        _bits(trace.step_norms),
        _bits(trace.residual_norms),
    )


def _p_overflow_trap():
    # At alpha 1.5 from (2, 1): step 1 puts x1 at 0, step 2 at about -1e-302,
    # and step 3 fails because that component's P entry overflows.  The
    # record must carry the norms of step 2.
    p0 = recip_gamma(-0.5) * 2.0**-1.5 + 1e-3
    return TargetFunction("p-overflow", 2, lambda v: np.array([(v[0] - 1e-300) / p0, v[1] / 2]))


_CI_FULL_GRID = AlphaGrid(-1.2, 1.2, 0.005)


class TestMatchesReferenceLoop:
    def test_full_ci_grid_fills_the_window(self):
        assert len(_CI_FULL_GRID.values()) > solver._BLOCK_ROWS

    @pytest.mark.parametrize(
        "target,x0,grid,statuses",
        [
            (make_target("ci", k=50), vec(0.018), AlphaGrid(-1.2, 1.2, 0.05),
             {"Converged", "MaxIterations", "NumericalFailure"}),
            # about 475 orders, more than the engine's block: full blocks are
            # checked (test_full_ci_grid_fills_the_window keeps it so)
            (make_target("ci", k=50), vec(0.018), _CI_FULL_GRID,
             {"Converged", "MaxIterations", "NumericalFailure"}),
            # f(x0) fails, so every record is a 0-iteration failure and every
            # trace holds x0 alone
            (ci_series(10), vec(0), AlphaGrid(-0.5, 0.5, 0.1), {"NumericalFailure"}),
            # f(x0) is NaN without raising, so every run fails in its first
            # update and the engine's first step has no rows to evaluate
            (make_target("ci", k=50), vec(1e6), AlphaGrid(-0.5, 0.5, 0.1),
             {"NumericalFailure"}),
            (make_target("si", k=50), vec(1.85), AlphaGrid(-0.9, 1.5, 0.05),
             {"Converged", "MaxIterations", "NumericalFailure"}),
            (make_target("zeta-hasse", k=50), vec(0.5 + 31.51j), AlphaGrid(-1.2, 0.35, 0.05),
             {"Converged", "MaxIterations", "NumericalFailure"}),
            (make_target("example3"), vec(0.86, 0.86), AlphaGrid(0.65, 1.3, 0.01),
             {"Converged", "MaxIterations", "NumericalFailure"}),
            (polynomial([-1, 0, 0, 0]), vec(2 + 0j), AlphaGrid(-1.5, 1.5, 0.1),
             {"Diverged"}),
            (_p_overflow_trap(), vec(2, 1), AlphaGrid(1.5, 1.6, 0.1),
             {"NumericalFailure", "MaxIterations"}),
            (TargetFunction("cube", 2, lambda v: -(v**3)), vec(2, 1 + 1j),
             AlphaGrid(-1.5, 1.5, 0.1), {"Diverged", "MaxIterations"}),
        ],
        ids=["ci", "ci-full", "ci-fails-at-x0", "ci-fails-at-step-1", "si", "zeta-hasse", "example3", "poly",
             "p-overflow", "cube-2d"],
    )
    def test_records_and_traces_are_bitwise_equal(self, target, x0, grid, statuses):
        base = FpnConfig(alpha=0.5)
        configs = [dataclasses.replace(base, alpha=a) for a in grid.values()]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            expected = [_ref_solve(target, x0, c) for c in configs]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            swept = run_sweep(target, x0, grid, base).records
            solved = [fpn_solve(target, x0, c) for c in configs]
        assert statuses <= {rec.status.name for rec, _ in expected}
        assert [_record_bits(r) for r in swept] == [_record_bits(r) for r, _ in expected]
        assert [(_record_bits(r), _trace_bits(t)) for r, t in solved] == [
            (_record_bits(r), _trace_bits(t)) for r, t in expected
        ]


_EDGE_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=1e199, max_value=1e201),
    st.floats(min_value=-1e201, max_value=-1e199),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
    st.sampled_from([s * 10.0 ** -m for s in (1.0, -1.0) for m in range(1, 13)]),
)
_EDGE_VECTORS = st.lists(st.builds(complex, _EDGE_FLOATS, _EDGE_FLOATS), min_size=1, max_size=4)
# Vectors of 2-4 components at one scale each: the edge floats, ordinary
# parts, parts whose squares are subnormal or vanish, and parts near 1e154,
# where a square overflows.
_TINY_PARTS = st.one_of(
    st.sampled_from([0.0, 1e-310, -1e-310, 5e-324]),
    st.floats(min_value=1e-165, max_value=1e-150),
    st.floats(min_value=-1e-150, max_value=-1e-165),
)
_HUGE_PARTS = st.one_of(
    st.floats(min_value=5e153, max_value=2e154), st.floats(min_value=-2e154, max_value=-5e153)
)
_NORM_VECTORS = st.one_of(
    [
        st.lists(st.builds(complex, parts, parts), min_size=2, max_size=4)
        for parts in (_EDGE_FLOATS, st.floats(-10.0, 10.0), _TINY_PARTS, _HUGE_PARTS)
    ]
)


_BATCH_PARTS = st.one_of(_EDGE_FLOATS, st.floats(-10.0, 10.0))
_BATCHES = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.lists(
        st.lists(st.builds(complex, _BATCH_PARTS, _BATCH_PARTS), min_size=n, max_size=n),
        min_size=1,
        max_size=8,
    )
)


def _complex_rows(shape):
    rows, n = shape
    row = st.lists(st.builds(complex, _BATCH_PARTS, _BATCH_PARTS), min_size=n, max_size=n)
    return st.lists(row, min_size=rows, max_size=rows)


# (z, f) batches of one (B, n) shape
_UPDATE_BATCHES = st.tuples(st.integers(1, 8), st.integers(1, 4)).flatmap(
    lambda shape: st.tuples(*[_complex_rows(shape)] * 2)
)
# orders FpnConfig accepts, and epsilons with 0, where P is 0 at the origin
_ORDERS = st.floats(-2.0, 2.0).filter(lambda a: abs(a - round(a)) >= INTEGER_GUARD)
_EPSILONS = st.one_of(st.sampled_from([0.0, 1e-3]), st.floats(0.0, 10.0))

# An exact sum of squares at most this far beyond or short of the largest
# float may round either way: the float sum of 2-8 terms >= 0 is within a
# relative 8 * 2^-53 of it.
_OVERFLOW_SLACK = 2.0**-49


def _ulps_apart(a, b):
    # both finite and >= 0, so their bit patterns order as they do
    ia, ib = (struct.unpack("<q", struct.pack("<d", v))[0] for v in (a, b))
    return abs(ia - ib)


class TestBookkeepingProperties:
    @settings(max_examples=200)
    @given(st.builds(complex, _EDGE_FLOATS, _EDGE_FLOATS))
    def test_one_component_norm_matches_linalg_norm(self, z):
        # so 1-component records are those np.linalg.norm would give
        assert _bits([_norm([z])]) == _bits([_linalg_norm(vec(z))])

    @settings(max_examples=500)
    @given(_NORM_VECTORS)
    @example([9.650433242397706e153 + 1.0286626244542964e146j,
              9.307977853446841e153 + 7.263194940237429e145j])
    @example([1e154 + 1e154j, 0j])
    def test_norm_near_linalg_norm_and_finite_unless_overflow(self, zs):
        got = _norm(zs)
        parts = [p for z in zs for p in (z.real, z.imag)]
        if not all(map(math.isfinite, parts)):
            assert not math.isfinite(got)
            return
        exact = sum(Fraction(p) ** 2 for p in parts)
        largest = Fraction(sys.float_info.max)
        if exact >= largest * (1 + Fraction(_OVERFLOW_SLACK)):
            assert got == math.inf
            return
        if exact > largest * (1 - Fraction(_OVERFLOW_SLACK)):
            return  # rounds to inf or to the largest float
        assert math.isfinite(got)
        if all(p == 0.0 or sys.float_info.min <= p * p < math.inf for p in parts):
            assert _ulps_apart(got, _linalg_norm(vec(*zs))) <= 4

    @settings(max_examples=200)
    @given(_BATCHES)
    # summed from the first component the squares stay 1, from the last 1 + 2^-51
    @example([[1.0] + [2.0**-27 * (1 + 1j)] * 3])
    def test_norm_is_reproduced_by_batched_numpy(self, rows):
        # the contract a (B, n) engine relies on: adding re*re + im*im column
        # by column gives each row's _norm bit for bit
        v = np.array(rows, dtype=np.complex128)
        with np.errstate(over="ignore", invalid="ignore"):
            s = np.zeros(v.shape[0])
            for k in range(v.shape[1]):
                s = s + (v.real[:, k] * v.real[:, k] + v.imag[:, k] * v.imag[:, k])
            batched = np.sqrt(s)
        assert _bits(batched) == _bits([_norm(row) for row in rows])

    @settings(max_examples=200)
    @given(_UPDATE_BATCHES, _ORDERS, _EPSILONS, st.integers(min_value=1, max_value=12))
    @example(([[1e-300 + 0j]], [[1 + 0j]]), 1.9, 1e-3, 5)  # the P entry overflows
    def test_update_is_reproduced_by_batched_numpy(self, batch, alpha, epsilon, m):
        # the contract a (B, n) engine relies on for x - P f(x): P rows from
        # _ref_p_matrix, split real arithmetic over the whole batch, then Rnd_m,
        # give each row's _step iterate bit for bit; its step is _norm of the
        # rounded row minus z and its size _norm of the rounded row; and a row
        # whose P entry overflows or is not finite, or whose update is not
        # finite, fails as _step does
        rg = recip_gamma(1.0 - alpha)
        threshold = 10.0 ** (-m)
        config = FpnConfig(alpha=alpha, epsilon=epsilon)
        p_rows = []
        for zs in batch[0]:
            try:
                p_rows.append(_ref_p_matrix(vec(*zs), config).tolist())
            except NumericalFailureError:
                p_rows.append(None)
        # a failed P row is 0 here; its update is not compared
        p = np.array([ps or [0j] * len(zs) for ps, zs in zip(p_rows, batch[0])])
        z, f = (np.array(rows, dtype=np.complex128) for rows in batch)
        with np.errstate(over="ignore", invalid="ignore"):
            batched = _split_update(z, p, f)
        for row, ps, zs, fs in zip(batched.tolist(), p_rows, *batch):
            if ps is None or not all(map(cmath.isfinite, row)):
                with pytest.raises(NumericalFailureError):
                    _step(zs, fs, complex(-alpha), rg, epsilon, threshold)
            else:
                got, step, size = _step(zs, fs, complex(-alpha), rg, epsilon, threshold)
                rounded = _snap(row, threshold)
                assert _bits(got) == _bits(rounded)
                assert _bits([step]) == _bits([_norm([y - x for y, x in zip(rounded, zs)])])
                assert _bits([size]) == _bits([_norm(rounded)])

    @settings(max_examples=200)
    @given(_EDGE_VECTORS, st.integers(min_value=1, max_value=12))
    def test_round_iterate_matches_component_loop(self, zs, m):
        v = np.array(zs, dtype=np.complex128)
        assert _bits(round_iterate(v, m)) == _bits(_ref_round(v, m))


# components on each branch of a P entry: zero of either sign, the exact
# positive real axis (z.real ** -alpha), the negative real axis, and off the
# real axis (exp(-alpha log z)), at ordinary and extreme magnitudes
_P_COMPONENTS = st.one_of(
    st.sampled_from([0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]),
    st.builds(complex, st.floats(5e-324, 1e300), st.sampled_from([0.0, -0.0])),
    st.builds(complex, st.floats(-1e300, -5e-324), st.sampled_from([0.0, -0.0])),
    st.builds(complex, st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
    st.builds(complex, st.floats(-1e300, 1e300), st.floats(-1e300, 1e300)),
)
_STEP_INPUTS = st.lists(_P_COMPONENTS, min_size=1, max_size=4).flatmap(
    lambda zs: st.tuples(
        st.just(zs),
        st.lists(st.builds(complex, _BATCH_PARTS, _BATCH_PARTS), min_size=len(zs),
                 max_size=len(zs)),
    )
)


class TestStepKernel:
    @settings(max_examples=300)
    @given(_STEP_INPUTS, _ORDERS, _EPSILONS, st.integers(min_value=1, max_value=12))
    @example(([1e-300 + 0j], [1 + 0j]), 1.9, 1e-3, 5)  # the P entry overflows
    @example(([0j, 2 + 0j, -2 + 0j, 1 + 1j], [1j, 1 + 0j, 1 + 0j, 1 + 0j]), 0.5, 1e-3, 5)
    def test_p_entries_are_build_p_matrix(self, inputs, alpha, epsilon, m):
        # fpn_step runs the engine's kernel, and build_p_matrix reads the P
        # entries it forms inline.  Against _ref_p_matrix, written from
        # complex_power: build_p_matrix must give its entries bit for bit,
        # fpn_step must give Rnd_m(x - P f(x)) bit for bit, and both must fail
        # where _ref_p_matrix or that update does
        zs, fs = inputs
        x = vec(*zs)
        target = TargetFunction("fixed", len(zs), lambda v: vec(*fs))
        config = FpnConfig(alpha=alpha, epsilon=epsilon, round_exponent_m=m)
        try:
            p = _ref_p_matrix(x, config)
        except NumericalFailureError:
            with pytest.raises(NumericalFailureError):
                build_p_matrix(x, config)
            with pytest.raises(NumericalFailureError):
                fpn_step(x, target, config)
            return
        assert _bits(build_p_matrix(x, config)) == _bits(p)
        with np.errstate(over="ignore", invalid="ignore"):
            y = _split_update(x, p, vec(*fs))
        if not _ref_all_finite(y):
            with pytest.raises(NumericalFailureError):
                fpn_step(x, target, config)
        else:
            assert _bits(fpn_step(x, target, config)) == _bits(round_iterate(y, m))

    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from(["poly", "example3"]),
        # any order, or one of the acceptance ex3 grid's, where runs also
        # converge and reach 500 iterations
        st.lists(st.one_of(_ORDERS, st.floats(0.65, 1.3)), min_size=1, max_size=12),
        st.integers(min_value=2, max_value=5),
    )
    def test_block_size_does_not_change_records(self, name, alphas, rows):
        # a run's record does not depend on the runs beside it: one row a
        # block, a few rows (so runs that end are replaced mid-sweep) and the
        # default block give the same records bit for bit
        target, x0 = {
            "poly": (polynomial([1, 0, -1]), vec(3)),
            "example3": (example3_system(), vec(0.86, 0.86)),
        }[name]
        config = FpnConfig(alpha=0.5)
        records = [solver._solve(target, x0, config, alphas)]
        for size in (1, rows):
            with mock.patch.object(solver, "_BLOCK_ROWS", size):
                records.append(solver._solve(target, x0, config, alphas))
        default, *others = ([_record_bits(r) for r in recs] for recs in records)
        assert all(o == default for o in others)
