import dataclasses
import functools
import io
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracroots import cli, solver, targets
from fracroots.errors import TARGET_FAILURES, DomainError, EvaluationError
from fracroots.solver import FpnConfig, SolveStatus, fpn_solve
from fracroots.sweep import AlphaGrid, run_sweep, stability_probe
from fracroots.targets import TargetFunction, make_target, polynomial, zeta_functional_target


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
        st.floats(min_value=0.01, max_value=4.0),
        st.floats(min_value=0.001, max_value=4.0),
        st.sampled_from([1e-9, 1e-6, 0.01]),
    )
    # _count's margin of 1e-9 of a step reaches 2.00000000175 here, past a
    # 1e-9 exclusion band around 2
    @example(-1.5, 3.5, 3.5 * (1 + 5e-10), 1e-9)
    def test_emitted_values_respect_exclusion(self, lo, width, step, exclusion):
        hi = min(lo + width, 2.0)
        if not lo < hi:
            return
        try:
            grid = AlphaGrid(lo=lo, hi=hi, step=step, integer_exclusion=exclusion)
        except DomainError:
            return
        for v in grid.values():
            assert abs(v - round(v)) >= exclusion
            assert lo <= v <= min(hi + 2e-9 * step, 2.0)
            FpnConfig(alpha=v)


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


def _float_bits(x: float):
    # raw IEEE bits, with every NaN as one class
    return "nan" if math.isnan(x) else struct.pack("<d", x)


def _record_bits(rec):
    parts = [p for z in rec.root.tolist() for p in (z.real, z.imag)]
    return (
        _float_bits(rec.alpha),
        tuple(map(_float_bits, parts)),
        _float_bits(rec.step_norm),
        _float_bits(rec.residual_norm),
        rec.iterations,
        rec.status,
    )


def _per_order(f, x0, grid, base):
    return [
        fpn_solve(f, x0, dataclasses.replace(base, alpha=alpha))[0] for alpha in grid.values()
    ]


# small grids over each registry target, with both early failures and runs
# that reach the iteration cap
_ENGINE_CASES = {
    "ci": ("0.018", (-1.2, 1.2, 0.1)),
    # more orders than the block window, so the engine runs full Ci blocks
    "ci-full": ("0.018", (-1.2, 1.2, 0.01)),
    "si": ("1.85", (-0.9, 1.5, 0.1)),
    "zeta-hasse": ("0.5+31.51i", (-1.2, 0.35, 0.05)),
    "example3": ("0.86,0.86", (0.65, 1.3, 0.02)),
    "poly": ("2", (-2.0, 2.0, 0.05)),
}


@functools.cache
def _engine_case(name):
    # the target, start, grid and config of an _ENGINE_CASES entry, with the
    # per-order fpn_solve records: one-order engine calls, whose blocks are
    # single rows through evaluate, so these are the batch-of-one records
    # that every block size must give
    x0_text, grid_args = _ENGINE_CASES[name]
    f = make_target(name.removesuffix("-full"), k=50, coeffs="1,0,1")
    x0 = np.array([complex(p.replace("i", "j")) for p in x0_text.split(",")])
    grid = AlphaGrid(*grid_args)
    base = FpnConfig(alpha=0.5, max_iter=200)
    return f, x0, grid, base, list(map(_record_bits, _per_order(f, x0, grid, base)))


# batch-of-one (every row through evaluate), a small block, the former
# 64-row window and the engine's own
@pytest.fixture(
    params=[1, 7, 64, solver._BLOCK_ROWS], ids=["block1", "block7", "block64", "default-block"]
)
def block_rows(request, monkeypatch):
    monkeypatch.setattr(solver, "_BLOCK_ROWS", request.param)
    return request.param


class TestLockstepEngine:
    @pytest.mark.parametrize("name", sorted(_ENGINE_CASES))
    def test_records_equal_per_order_solves(self, name, block_rows):
        f, x0, grid, base, expected = _engine_case(name)
        report = run_sweep(f, x0, grid, base)
        assert list(map(_record_bits, report.records)) == expected

    def test_full_ci_case_fills_the_window(self):
        assert len(AlphaGrid(*_ENGINE_CASES["ci-full"][1]).values()) > solver._BLOCK_ROWS

    def test_target_without_batch_evaluator(self, block_rows):
        # the four-field form a wrapping target (such as a tracer) builds
        inner = make_target("ci", k=50)
        f = TargetFunction(inner.name, inner.dimension, inner.evaluate, inner.truncation_k)
        assert f.evaluate_batch is None
        x0 = np.array([0.018 + 0j])
        grid = AlphaGrid(-1.2, 1.2, 0.1)
        base = FpnConfig(alpha=0.5, max_iter=200)
        records = run_sweep(f, x0, grid, base).records
        assert list(map(_record_bits, records)) == list(
            map(_record_bits, run_sweep(inner, x0, grid, base).records)
        )
        assert list(map(_record_bits, records)) == list(
            map(_record_bits, _per_order(f, x0, grid, base))
        )

    def test_failing_row_fails_only_its_own_run(self, block_rows):
        inner = polynomial([1, 0, 1])
        x0 = np.array([2 + 0j])
        grid = AlphaGrid(-2.0, 2.0, 0.05)
        base = FpnConfig(alpha=0.5)
        clean = run_sweep(inner, x0, grid, base).records
        victim = next(i for i, r in enumerate(clean) if r.iterations >= 5)
        alpha = grid.values()[victim]
        _, trace = fpn_solve(inner, x0, dataclasses.replace(base, alpha=alpha))
        bad = trace.iterates[3].tobytes()
        batches = []

        def evaluate(v):
            if np.asarray(v).tobytes() == bad:
                raise EvaluationError("the planted failure")
            return inner.evaluate(v)

        def evaluate_batch(x):
            batches.append(len(x))
            if any(row.tobytes() == bad for row in x):
                raise EvaluationError("the planted failure")
            return inner.evaluate_batch(x)

        f = TargetFunction("planted", 1, evaluate, evaluate_batch=evaluate_batch)
        records = run_sweep(f, x0, grid, base).records
        changed = [
            i for i, (a, b) in enumerate(zip(records, clean)) if _record_bits(a) != _record_bits(b)
        ]
        assert changed == [victim]
        failed = records[victim]
        assert failed.status is SolveStatus.NumericalFailure
        assert failed.iterations == 3
        assert failed.residual_norm == math.inf
        assert list(map(_record_bits, records)) == list(
            map(_record_bits, _per_order(f, x0, grid, base))
        )
        if block_rows == 1:
            assert not batches
        else:
            assert batches and max(batches) <= block_rows

    def test_every_example3_row_reaches_the_kernel_once(self, block_rows, monkeypatch):
        # a block with a failing row reports every row's value, so the
        # engine never evaluates a row again
        inner = make_target("example3")
        kernel_calls = []
        engine_rows = []
        failed_blocks = []
        evaluate_rows = solver._evaluate_rows

        def spy(f, rows):
            engine_rows.append(len(rows))
            return evaluate_rows(f, rows)

        monkeypatch.setattr(solver, "_evaluate_rows", spy)

        def kernel(x1, x2):
            kernel_calls.append((x1, x2))
            return inner.evaluate(np.array([x1, x2])).tolist()

        row_kernel = targets._kernel_target("example3", 2, kernel).evaluate_batch

        def evaluate_batch(x):
            try:
                return row_kernel(x)
            except TARGET_FAILURES:
                failed_blocks.append(len(x))
                raise

        f = TargetFunction(
            "example3", 2, lambda v: np.array(kernel(*v.tolist())), evaluate_batch=evaluate_batch
        )
        x0 = np.array([0.86 + 0j, 0.86 + 0j])
        grid = AlphaGrid(0.65, 1.3, 0.01)
        records = run_sweep(f, x0, grid, FpnConfig(alpha=0.5)).records
        # f(x0) once, then each row the engine evaluates exactly once,
        # whether it went through evaluate_batch or (alone) through evaluate
        assert bool(failed_blocks) == (block_rows > 1)
        assert len(kernel_calls) == 1 + sum(engine_rows)
        assert list(map(_record_bits, records)) == list(
            map(_record_bits, run_sweep(inner, x0, grid, FpnConfig(alpha=0.5)).records)
        )

    def test_blocks_never_exceed_the_cap(self, block_rows):
        inner = polynomial([1, 0, -1])
        sizes = []

        def evaluate_batch(x):
            sizes.append(len(x))
            return inner.evaluate_batch(x)

        spy = dataclasses.replace(inner, evaluate_batch=evaluate_batch)
        grid = AlphaGrid(-2.0, 2.0, 0.005)
        assert len(grid.values()) > solver._BLOCK_ROWS
        run_sweep(spy, np.array([3 + 0j]), grid, FpnConfig(alpha=0.5))
        if block_rows == 1:
            assert sizes == []
        else:
            assert max(sizes) == block_rows
            assert min(sizes) >= 2

    @pytest.mark.parametrize("call", ["sweep", "fpn_solve", "cli-solve"])
    def test_one_row_block_goes_through_evaluate(self, call, monkeypatch, capsys):
        # on the sweep's grid one ci run outlives the others by ten steps, and
        # a one-order solve is 1-row blocks only; those rows must reach
        # evaluate, never evaluate_batch
        inner = make_target("ci", k=50)
        batch_sizes = []
        single_rows = []
        engine_single = []
        evaluate_rows = solver._evaluate_rows

        def evaluate(v):
            single_rows.append(v.tobytes())
            return inner.evaluate(v)

        def evaluate_batch(x):
            batch_sizes.append(len(x))
            return inner.evaluate_batch(x)

        def spy(f, rows):
            if len(rows) == 1:
                engine_single.append(np.array(rows[0], dtype=np.complex128).tobytes())
            return evaluate_rows(f, rows)

        monkeypatch.setattr(solver, "_evaluate_rows", spy)
        f = dataclasses.replace(inner, evaluate=evaluate, evaluate_batch=evaluate_batch)
        x0 = np.array([0.018 + 0j])
        if call == "sweep":
            grid = AlphaGrid(0.0, 0.1, 0.01)
            base = FpnConfig(alpha=0.5)
            expected = run_sweep(inner, x0, grid, base).records
            engine_single.clear()
            records = run_sweep(f, x0, grid, base).records
            assert list(map(_record_bits, records)) == list(map(_record_bits, expected))
            assert len(engine_single) == 10
            assert min(batch_sizes) >= 2
        else:
            # a 198-step solve, each step one row
            expected, _ = fpn_solve(inner, x0, FpnConfig(alpha=0.55))
            engine_single.clear()
            if call == "fpn_solve":
                record, _ = fpn_solve(f, x0, FpnConfig(alpha=0.55))
                assert _record_bits(record) == _record_bits(expected)
            else:
                monkeypatch.setattr(cli, "make_target", lambda *args, **kwargs: f)
                argv = ["solve", "--target", "ci", "--x0", "0.018", "--alpha", "0.55"]
                assert cli.main(argv) == cli.EXIT_OK
                line = io.StringIO()
                cli._print_record(expected, line)
                assert capsys.readouterr().out == line.getvalue()
            assert batch_sizes == []
            assert len(engine_single) == expected.iterations
        # f(x0) once, then exactly the engine's single rows
        assert single_rows[1:] == engine_single

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False),
            min_size=2,
            max_size=4,
        ),
        st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False),
        st.floats(min_value=-1.9, max_value=1.5),
    )
    def test_random_polynomials(self, coeffs, x0, lo):
        if coeffs[0] == 0:
            coeffs[0] = 1
        f = polynomial(coeffs)
        grid = AlphaGrid(lo, lo + 0.4, 0.02)
        base = FpnConfig(alpha=0.5, max_iter=60)
        records = run_sweep(f, np.array([x0]), grid, base).records
        expected = _per_order(f, np.array([x0]), grid, base)
        assert list(map(_record_bits, records)) == list(map(_record_bits, expected))

    def test_failure_at_the_start_point(self):
        f = make_target("ci", k=50)
        report = run_sweep(f, np.array([0j]), AlphaGrid(0.3, 0.5, 0.1), FpnConfig(alpha=0.5))
        assert [r.status for r in report.records] == [SolveStatus.NumericalFailure] * 3
        assert all(r.iterations == 0 and r.residual_norm == math.inf for r in report.records)

    def test_failure_at_the_first_step(self, block_rows):
        # Ci is NaN at 1e6 without raising, so every run fails in its first
        # update: the step leaves no rows, and the target is not called on them
        inner = make_target("ci", k=50)

        def evaluate_batch(x):
            assert len(x) > 0
            return inner.evaluate_batch(x)

        f = dataclasses.replace(inner, evaluate_batch=evaluate_batch)
        x0 = np.array([1e6 + 0j])
        grid = AlphaGrid(-0.5, 0.5, 0.1)
        records = run_sweep(f, x0, grid, FpnConfig(alpha=0.5)).records
        solved = _per_order(f, x0, grid, FpnConfig(alpha=0.5))
        assert list(map(_record_bits, records)) == list(map(_record_bits, solved))
        assert [(r.status, r.iterations) for r in records] == [
            (SolveStatus.NumericalFailure, 1)
        ] * len(grid.values())
