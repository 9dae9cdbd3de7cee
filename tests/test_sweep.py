import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracroots.errors import DomainError
from fracroots.solver import FpnConfig, SolveStatus
from fracroots.sweep import AlphaGrid, run_sweep, stability_probe
from fracroots.targets import polynomial, zeta_functional_target


class TestAlphaGrid:
    def test_values_and_exclusion(self):
        grid = AlphaGrid(lo=-0.02, hi=0.02, step=0.005)
        values = grid.values()
        assert all(abs(v - round(v)) >= 0.01 for v in values)
        assert any(abs(v - 0.015) < 1e-12 for v in values)
        assert not any(abs(v) < 0.01 for v in values)

    def test_endpoints_included(self):
        values = AlphaGrid(lo=-1.2, hi=0.35, step=0.005).values()
        assert abs(values[0] + 1.2) < 1e-12
        assert abs(values[-1] - 0.35) < 1e-9
        assert len(values) == 305  # 311 points minus 6 inside the exclusion band

    @pytest.mark.parametrize("step", [1e-12, 5e-324, 4e-6])
    def test_too_many_orders_rejected_before_building(self, step):
        # 4e12, inf and 1,000,001 orders; the first two would not fit in memory
        message = r"grid has (\d[\d,]*|inf) orders, more than 1,000,000"
        with pytest.raises(DomainError, match=message):
            AlphaGrid(lo=-2.0, hi=2.0, step=step)

    def test_finest_shipped_grid_allowed(self):
        assert len(AlphaGrid(lo=-0.85, hi=-0.80, step=2e-5).values()) == 2501

    def test_empty_after_exclusion(self):
        with pytest.raises(DomainError):
            AlphaGrid(lo=-0.009, hi=0.009, step=0.002)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lo": -2.5, "hi": 0.0, "step": 0.1},
            {"lo": 0.5, "hi": 0.4, "step": 0.1},
            {"lo": 0.0, "hi": 2.5, "step": 0.1},
            {"lo": 0.1, "hi": 0.5, "step": 0.0},
            {"lo": 0.1, "hi": 0.5, "step": 0.1, "integer_exclusion": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(DomainError):
            AlphaGrid(**kwargs)

    @settings(max_examples=50)
    @given(
        st.floats(min_value=-2.0, max_value=1.0),
        st.floats(min_value=0.01, max_value=1.0),
        st.floats(min_value=0.001, max_value=0.2),
    )
    def test_emitted_values_respect_exclusion(self, lo, width, step):
        hi = min(lo + width, 2.0)
        if not lo < hi:
            return
        try:
            grid = AlphaGrid(lo=lo, hi=hi, step=step)
        except DomainError:
            return
        for v in grid.values():
            assert abs(v - round(v)) >= grid.integer_exclusion
            assert lo - 1e-9 <= v <= hi + 1e-9


@pytest.fixture(scope="module")
def quadratic_report():
    f = polynomial([1, 0, -1])
    grid = AlphaGrid(lo=0.3, hi=0.9, step=0.05)
    return run_sweep(f, np.array([3 + 0j]), grid, FpnConfig(alpha=0.5)), f, grid


class TestRunSweep:
    def test_finds_real_roots(self, quadratic_report):
        report, _, _ = quadratic_report
        roots = [complex(u.root[0]) for u in report.unique_roots]
        assert any(abs(r - 1.0) < 1e-5 for r in roots)

    def test_records_every_grid_point(self, quadratic_report):
        report, _, grid = quadratic_report
        assert len(report.records) == len(grid.values())
        assert [r.alpha for r in report.records] == grid.values()

    def test_unique_roots_backed_by_converged_records(self, quadratic_report):
        report, _, _ = quadratic_report
        for unique in report.unique_roots:
            assert unique.best_record.status is SolveStatus.Converged
            assert unique.multiplicity_count >= 1

    def test_cluster_soundness(self, quadratic_report):
        report, _, _ = quadratic_report
        cluster_tol = 1e-4
        for unique in report.unique_roots:
            members = [
                r
                for r in report.records
                if r.status is SolveStatus.Converged
                and float(np.linalg.norm(r.root - unique.root)) < cluster_tol
            ]
            assert len(members) >= unique.multiplicity_count

    def test_pairwise_separation(self, quadratic_report):
        report, _, _ = quadratic_report
        roots = [u.root for u in report.unique_roots]
        for i in range(len(roots)):
            for j in range(i + 1, len(roots)):
                assert float(np.linalg.norm(roots[i] - roots[j])) >= 1e-4

    def test_roots_reverify(self, quadratic_report):
        report, f, _ = quadratic_report
        for unique in report.unique_roots:
            assert float(np.linalg.norm(f.evaluate(unique.root))) <= 1e-6

    def test_deterministic(self, quadratic_report):
        report, f, grid = quadratic_report
        again = run_sweep(f, np.array([3 + 0j]), grid, FpnConfig(alpha=0.5))
        assert len(again.records) == len(report.records)
        for a, b in zip(report.records, again.records):
            assert a.alpha == b.alpha
            assert a.status is b.status
            assert np.array_equal(a.root, b.root)
            assert a.step_norm == b.step_norm
            assert a.residual_norm == b.residual_norm

    def test_unique_set_invariant_under_grid_reversal(self, quadratic_report):
        report, f, grid = quadratic_report
        records_reversed = list(reversed(report.records))
        from fracroots.sweep import _cluster_converged

        forward = {tuple(np.round(u.root.view(np.float64), 6)) for u in report.unique_roots}
        backward = {
            tuple(np.round(u.root.view(np.float64), 6))
            for u in _cluster_converged(records_reversed, 1e-4)
        }
        assert len(forward) == len(backward)
        for root in backward:
            assert any(
                max(abs(a - b) for a, b in zip(root, other)) < 1e-4 for other in forward
            )

    def test_complex_roots_from_real_start(self):
        # x^2 + 1 never vanishes on the real axis; the fractional powers of
        # negative iterates push the iteration into the plane
        f = polynomial([1, 0, 1])
        grid = AlphaGrid(lo=-2.0, hi=2.0, step=0.01)
        report = run_sweep(f, np.array([2 + 0j]), grid, FpnConfig(alpha=0.5))
        roots = [complex(u.root[0]) for u in report.unique_roots]
        assert any(abs(r - 1j) < 1e-5 for r in roots)
        assert any(abs(r + 1j) < 1e-5 for r in roots)

    def test_bad_cluster_tol(self, quadratic_report):
        _, f, grid = quadratic_report
        with pytest.raises(DomainError):
            run_sweep(f, np.array([3 + 0j]), grid, FpnConfig(alpha=0.5), cluster_tol=0.0)


class TestStabilityProbe:
    def test_linear_target_probe(self):
        f = polynomial([1, -1])
        probes = stability_probe(f, np.array([1 + 0j]), [-1e-12, 0.0, 1e-12])
        assert [d for d, _ in probes] == [-1e-12, 0.0, 1e-12]
        assert probes[1][1] == 0.0
        assert probes[0][1] == pytest.approx(1e-12, rel=1e-6)
        assert probes[2][1] == pytest.approx(1e-12, rel=1e-6)

    def test_zeta_trivial_zero_probe(self):
        t = zeta_functional_target(k=30)
        probes = stability_probe(t, np.array([-2 + 0j]), [0.0])
        assert probes[0][1] == 0.0
