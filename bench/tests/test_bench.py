"""Tests of the benchmark's own logic: percentiles, failure counting, the
50-digit oracle, record comparison and the seeded inputs.

Run from the repository root with `python3 -m pytest bench/tests -q`.
"""

import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import workloads
from fracroots import FpnConfig, SolveStatus, fpn_solve, make_target
from fracroots.solver import RootRecord

BENCH = Path(__file__).resolve().parent.parent


def solve(name, x0, alpha):
    record, _ = fpn_solve(make_target(name, k=checks.SERIES_K), np.array(x0, dtype=complex),
                          FpnConfig(alpha=alpha))
    return record


# --- percentiles -------------------------------------------------------------------


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))
    assert checks.percentile(values, 50) == 50
    assert checks.percentile(values, 90) == 90
    assert checks.percentile(values, 100) == 100
    assert checks.percentile([7.0], 90) == 7.0
    assert checks.percentile([1, 2, 3, 4], 50) == 2


def test_samples_beyond():
    assert checks.samples_beyond(100, 90) == 10
    assert checks.samples_beyond(99, 90) == 9
    assert checks.samples_beyond(1, 90) == 0


def test_single_shot_p90_has_ten_samples_beyond_it():
    assert checks.samples_beyond(len(workloads.make_calls(0)), 90) >= 10


def test_percentile_of_nothing_raises():
    with pytest.raises(ValueError):
        checks.percentile([], 50)


# --- failure counting ----------------------------------------------------------------


def test_tally_counts_operations_not_problems():
    tally = checks.Tally()
    tally.add([])
    tally.add(["oracle", "round trip"])
    tally.add([])
    tally.add([])
    assert (tally.attempted, tally.failed) == (4, 1)
    assert tally.error_share == 0.25
    tally.fail_all(4, "run_sweep raised")
    assert (tally.attempted, tally.failed) == (8, 5)
    assert len(tally.reasons) == 2


def test_empty_tally_has_no_errors():
    assert checks.Tally().error_share == 0.0


def _solve_call(name, x0, alpha, fmt):
    argv = ("solve", "--target", name, "--k", "50", "--x0", x0, "--alpha", repr(alpha),
            "--format", fmt)
    return workloads.CliCall("solve", argv, name, alpha, fmt)


@pytest.fixture(scope="module")
def single_shot():
    return workloads.SingleShotWorkload(0)


def test_converged_solve_with_exit_0_passes(single_shot):
    call = _solve_call("zeta-hasse", "0.5+31.51i", 0.04495, "jsonl")
    outcome, _ = workloads.call_cli(call.argv)
    assert outcome.code == 0
    assert single_shot.check_pair(call, outcome) == []


def test_non_convergence_with_exit_2_is_not_a_failure(single_shot):
    call = _solve_call("example3", "0.86,0.86", 0.7, "csv")
    outcome, _ = workloads.call_cli(call.argv)
    assert outcome.code == 2
    assert single_shot.parse_record(call, outcome).status is SolveStatus.NumericalFailure
    assert single_shot.check_pair(call, outcome) == []


def test_wrong_exit_code_is_a_failure(single_shot):
    call = _solve_call("zeta-hasse", "0.5+31.51i", 0.04495, "csv")
    outcome, _ = workloads.call_cli(call.argv)
    wrong = workloads.CliOutcome(2, outcome.stdout, None)
    assert any("exit 2" in p for p in single_shot.check_pair(call, wrong))


def test_escaped_exception_is_a_failure(single_shot):
    call = _solve_call("ci", "0.018", 0.5, "csv")
    outcome = workloads.CliOutcome(None, "", "RuntimeError: boom")
    assert single_shot.check_pair(call, outcome) == [f"{' '.join(call.argv)}: RuntimeError: boom"]


def test_usage_error_exit_is_a_failure():
    outcome, _ = workloads.call_cli(("solve", "--target", "nope", "--x0", "1", "--alpha", "0.5"))
    assert outcome.code == 1
    assert outcome.error


def test_inexact_cli_text_is_a_failure(single_shot):
    call = _solve_call("ci", "0.018", 0.5, "csv")
    outcome, _ = workloads.call_cli(call.argv)
    rec = single_shot.parse_record(call, outcome)
    text = repr(rec.step_norm)
    padded = workloads.CliOutcome(outcome.code, outcome.stdout.replace(text, text + "0"), None)
    assert any("re-serialised" in p for p in single_shot.check_pair(call, padded))


def test_failed_validation_suite_is_a_failure(single_shot):
    call = workloads.CliCall("validate", ("validate",))
    outcome = workloads.CliOutcome(2, "monomial-oracle: FAIL (x)\nsemigroup: PASS (y)\n"
                                      "prop2-limit: PASS (z)\n", None)
    assert single_shot.check_pair(call, outcome)


def test_stability_checks_the_exact_zero():
    call = workloads.CliCall("stability", ("stability", "--xi", "-40"), xi=-40)
    good, _ = workloads.call_cli(call.argv)
    assert workloads._stability_problems("s", -40, good) == []
    bad = workloads.CliOutcome(0, good.stdout.replace("|f|=0.000000e+00", "|f|=1.0e-3"), None)
    assert workloads._stability_problems("s", -40, bad)


# --- oracle ----------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name, x0, alpha",
    [
        ("zeta-hasse", [0.5 + 31.51j], 0.04495),
        ("ci", [0.018], 0.5),
        ("example3", [0.86, 0.86], 0.728),
    ],
)
def test_oracle_accepts_a_root_and_rejects_it_perturbed(name, x0, alpha):
    rec = solve(name, x0, alpha)
    assert rec.status is SolveStatus.Converged
    assert checks.record_problems(name, rec) == []
    moved = RootRecord(rec.alpha, rec.root + 1e-4, rec.step_norm, rec.residual_norm,
                       rec.iterations, rec.status)
    problems = checks.record_problems(name, moved)
    assert len(problems) == 1 and "50-digit" in problems[0]


@pytest.mark.parametrize(
    "name, point",
    [
        ("zeta-hasse", [0.3 + 2j]),
        ("zeta-hasse", [-7.3 + 0.4j]),
        ("ci", [1.7 + 0.2j]),
        ("si", [2.3 - 0.5j]),
        ("example3", [0.4 + 0.1j, 0.9 - 0.2j]),
    ],
)
def test_oracle_matches_the_library_away_from_roots(name, point):
    # a wrong oracle formula would be off by O(1); the library itself loses
    # ~1e-9 relative in the zeta sum's cancellations on the negative axis
    x = np.array(point, dtype=complex)
    library = float(np.linalg.norm(make_target(name, k=checks.SERIES_K).evaluate(x)))
    assert math.isclose(checks.oracle_residual(name, x), library, rel_tol=1e-8)


def test_oracle_knows_every_single_shot_target():
    for name in workloads.ACCEPTANCE:
        assert checks.oracle_residual(name, [0.5 + 0.5j] * (2 if name == "example3" else 1)) > 0


# --- records and references --------------------------------------------------------------


def test_same_record_matches_nan_but_not_signed_zero():
    base = RootRecord(0.5, np.array([1 + 0j]), 0.0, float("nan"), 3,
                      SolveStatus.NumericalFailure)
    other_nan = RootRecord(0.5, np.array([1 + 0j]), 0.0, -float("nan"), 3,
                           SolveStatus.NumericalFailure)
    neg_zero = RootRecord(0.5, np.array([1 + 0j]), -0.0, float("nan"), 3,
                          SolveStatus.NumericalFailure)
    assert checks.same_record(base, other_nan)
    assert not checks.same_record(base, neg_zero)
    assert all(checks.round_trips(fmt, [base, other_nan, neg_zero]) for fmt in checks.FORMATS)


def test_reference_hits_use_acceptance_tolerances():
    hits = checks.reference_hits("zeta-hasse", [0.5 - 14.1347j, -6.0 + 0.0005j, 0.5 + 50j])
    assert hits == {"zeta:14.134725", "zeta:-6.0"}
    assert checks.reference_hits("ci", [3.38418 + 0j, 9.5257 + 0j]) == {"ci:3.38418"}
    pair = checks.EX3_CONJUGATE_PAIRS[1][1]
    assert checks.reference_hits("example3", [pair + 5e-4]) == {"example3:pair1.1"}


# --- seeded inputs -----------------------------------------------------------------------


def test_seed_zero_is_the_acceptance_grid():
    assert workloads.grid_shift(0) == 0.0
    zeta = workloads.SweepWorkload("zeta-sweep", 0)
    assert len(zeta.orders) == 305
    assert zeta.orders[0] == -1.2
    assert all(0.0 <= workloads.grid_shift(s) < 1.0 for s in range(1, 50))


def test_seeds_repeat_their_shift_and_every_shift_has_its_roots():
    shifts = [workloads.grid_shift(s) for s in range(workloads.SHIFTS)]
    assert len(set(shifts)) == workloads.SHIFTS
    assert all(workloads.grid_shift(s + 3 * workloads.SHIFTS) == workloads.grid_shift(s)
               for s in range(workloads.SHIFTS))
    for name in workloads.WORKLOADS:
        for seed in range(workloads.SHIFTS):
            assert workloads.expected_roots(name, seed)
    assert workloads.expected_roots("zeta-sweep", 0) == workloads.expected_roots("zeta-sweep", 16)


def test_distinct_roots_are_counted_per_target():
    a = np.array([1.0 + 0j])
    pairs = [("ci", a), ("ci", a + 5e-5), ("ci", a + 2e-4), ("si", a)]
    assert checks.distinct_roots(pairs) == 3


def test_call_sequence_is_seeded():
    a, b, c = workloads.make_calls(1), workloads.make_calls(1), workloads.make_calls(2)
    assert a == b
    assert a != c
    assert sorted(x.alpha or 0 for x in a) == sorted(x.alpha or 0 for x in c)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "zeta-sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""



def test_timed_run_makes_two_passes_when_out_of_time(monkeypatch):
    import argparse

    import run

    spec = workloads.SweepSpec("ci", "0.018", ((0.4, 0.45, 0.01),), 0.5)
    monkeypatch.setitem(workloads.SWEEPS, "tiny-sweep", spec)
    monkeypatch.setattr(workloads, "expected_roots", lambda name, seed: {"ci:0.616505"})
    wl = workloads.SweepWorkload("tiny-sweep", 0)
    tally, info = checks.Tally(), {}
    metrics = run.run_timed(wl, argparse.Namespace(seconds=0.0, seed=0), tally, info)
    assert info["passes"] == 2
    assert tally.attempted == 2 * len(wl.orders)
    assert metrics["roots_kept"][1] == "ratio"


# --- traced runs -------------------------------------------------------------------------


def test_specfun_arguments_are_recorded_and_shipped():
    import tracing

    tracer = tracing.Tracer()
    originals = {n: getattr(m, n) for n, m in tracing.SPECFUN_CALLERS.items()}
    workloads.SingleShotWorkload(3).run_pass(tracer)
    assert {n: getattr(m, n) for n, m in tracing.SPECFUN_CALLERS.items()} == originals
    shipped = tracing.shipped_specfun_args()
    assert {n: sorted(c) for n, c in tracer.specfun_args.items()} == shipped
    assert all(shipped.values())


def test_traced_pass_reports_every_layer_metric(monkeypatch):
    import json

    import tracing

    spec = workloads.SweepSpec("ci", "0.018", ((0.4, 0.5, 0.01),), 0.5)
    monkeypatch.setitem(workloads.SWEEPS, "tiny-sweep", spec)
    wl = workloads.SweepWorkload("tiny-sweep", 0)
    untraced = wl.run_pass()
    tracer = tracing.Tracer()
    traced = wl.run_pass(tracer)
    assert all(map(checks.same_record, untraced.outcomes, traced.outcomes))

    solve_calls = tracing.solve_call_spans(tracer)
    records = wl.records(untraced)
    metrics = tracing.span_metrics(tracer, records, checks.distinct_roots(wl.converged(untraced)),
                                   solve_calls)
    metrics.update(tracing.replay_metrics(tracing.solve_points(tracer, solve_calls), wl.orders,
                                          records, 0))
    metrics.update(tracing.fixed_layer_metrics(0))
    metrics["trace.overhead_share"] = 0.0
    assert set(metrics) == set(tracing.LAYER_METRICS)
    assert metrics["solver.iterations"] == sum(r.iterations for r in records)
    assert metrics["targets.evals"] == len(tracing.solve_points(tracer, solve_calls))

    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["per_layer"]] == list(tracing.LAYER_METRICS)
    assert [m["unit"] for m in bench["per_layer"]] == list(tracing.LAYER_METRICS.values())
