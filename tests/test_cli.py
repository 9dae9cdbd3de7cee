import io
import json
import math
import re

import numpy as np
import pytest

from fracroots.cli import (
    format_complex,
    load_manifest,
    main,
    parse_grid,
    read_records_csv,
    read_records_jsonl,
    write_records_csv,
    write_records_jsonl,
)
from fracroots.errors import DomainError
from fracroots.solver import FpnConfig, RootRecord, SolveStatus, fpn_solve
from fracroots.targets import polynomial


def make_records():
    f = polynomial([1, 0, -1])
    records = []
    for alpha in (0.45, 0.8):
        rec, _ = fpn_solve(f, np.array([3 + 0j]), FpnConfig(alpha=alpha, max_iter=40))
        records.append(rec)
    return records


def records_equal(a: RootRecord, b: RootRecord) -> bool:
    def feq(x, y):
        if math.isnan(x) and math.isnan(y):
            return True
        return x == y

    return (
        a.alpha == b.alpha
        and a.status is b.status
        and a.iterations == b.iterations
        and feq(a.step_norm, b.step_norm)
        and feq(a.residual_norm, b.residual_norm)
        and np.array_equal(a.root, b.root)
    )


class TestSerialization:
    def test_csv_round_trip(self):
        records = make_records()
        buf = io.StringIO()
        write_records_csv(buf, records)
        buf.seek(0)
        parsed = read_records_csv(buf)
        assert len(parsed) == len(records)
        assert all(records_equal(a, b) for a, b in zip(records, parsed))

    def test_jsonl_round_trip(self):
        records = make_records()
        buf = io.StringIO()
        write_records_jsonl(buf, records)
        buf.seek(0)
        parsed = read_records_jsonl(buf)
        assert all(records_equal(a, b) for a, b in zip(records, parsed))

    def test_csv_columns(self):
        buf = io.StringIO()
        write_records_csv(buf, make_records())
        header = buf.getvalue().splitlines()[0]
        assert header == "alpha,status,iterations,step_norm,residual_norm,root_re_0,root_im_0"

    def test_csv_exact_bytes(self):
        rec = RootRecord(
            alpha=0.25,
            root=np.array([complex(-0.0, 1e-300), complex(math.inf, math.nan)]),
            step_norm=math.inf,
            residual_norm=math.nan,
            iterations=7,
            status=SolveStatus.NumericalFailure,
        )
        buf = io.StringIO()
        write_records_csv(buf, [rec])
        assert buf.getvalue() == (
            "alpha,status,iterations,step_norm,residual_norm,"
            "root_re_0,root_im_0,root_re_1,root_im_1\n"
            "0.25,NumericalFailure,7,inf,nan,-0.0,1e-300,inf,nan\n"
        )
        empty = io.StringIO()
        write_records_csv(empty, [])
        assert empty.getvalue() == "alpha,status,iterations,step_norm,residual_norm\n"

    @pytest.mark.parametrize("two_first", [True, False])
    def test_csv_round_trip_mixed_dimensions(self, two_first):
        one = make_records()[0]
        two = RootRecord(
            alpha=0.75,
            root=np.array([complex(0.25, -0.0), complex(-1.5, 2.0)]),
            step_norm=1e-7,
            residual_norm=math.nan,
            iterations=12,
            status=SolveStatus.Converged,
        )
        records = [two, one] if two_first else [one, two]
        buf = io.StringIO()
        write_records_csv(buf, records)
        assert buf.getvalue().splitlines()[0].endswith(",root_re_1,root_im_1")
        buf.seek(0)
        parsed = read_records_csv(buf)
        assert [r.root.shape for r in parsed] == [r.root.shape for r in records]
        assert all(records_equal(a, b) for a, b in zip(records, parsed))

    def test_jsonl_fields(self):
        buf = io.StringIO()
        write_records_jsonl(buf, make_records())
        row = json.loads(buf.getvalue().splitlines()[0])
        assert set(row) == {
            "alpha",
            "status",
            "iterations",
            "step_norm",
            "residual_norm",
            "root_re_0",
            "root_im_0",
        }


class TestHelpers:
    def test_parse_grid(self):
        grid = parse_grid("-1.2:0.35:0.005")
        assert grid.lo == -1.2 and grid.hi == 0.35 and grid.step == 0.005

    @pytest.mark.parametrize("text", ["1:2", "a:b:c", "0.1:0.9:0.0"])
    def test_parse_grid_rejects(self, text):
        with pytest.raises(DomainError):
            parse_grid(text)

    def test_format_complex(self):
        assert format_complex(3 + 0j) == "3.00000000"
        assert format_complex(0.5 - 14.13472527j) == "0.50000000-14.13472527i"

    def test_manifest_round_trip(self, tmp_path):
        path = tmp_path / "run.manifest"
        path.write_text("# demo\ntarget=poly\ncoeffs=1,0,-1\nx0=3\nalpha=0.8\n")
        entries = load_manifest(path)
        assert entries == {"target": "poly", "coeffs": "1,0,-1", "x0": "3", "alpha": "0.8"}

    def test_manifest_rejects_unknown_key(self, tmp_path):
        path = tmp_path / "bad.manifest"
        path.write_text("verbosity=11\n")
        with pytest.raises(DomainError):
            load_manifest(path)


class TestSolveCommand:
    def test_polynomial_solve_converges(self, capsys):
        code = main(
            ["solve", "--target", "poly", "--coeffs", "1,0,-1", "--x0", "3", "--alpha", "0.8"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "status=Converged" in out

    def test_zeta_known_row(self, capsys):
        code = main(
            [
                "solve",
                "--target",
                "zeta-hasse",
                "--k",
                "50",
                "--x0",
                "0.5+31.51i",
                "--alpha",
                "0.04495",
                "--epsilon",
                "1e-3",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "status=Converged" in out
        # landed on the first nontrivial zero pair
        assert "14.1347252" in out

    def test_alpha_dependent_outcome_reverifies(self, capsys):
        f = polynomial([1, 0, 1])
        code = main(
            ["solve", "--target", "poly", "--coeffs", "1,0,1", "--x0", "2", "--alpha", "0.3"]
        )
        out = capsys.readouterr().out
        assert code in (0, 2)
        if code == 0:
            root_text = out.split("root=(")[1].split(")")[0]
            root = complex(root_text.replace("i", "j"))
            assert abs(f.evaluate(np.array([root]))[0]) <= 1e-6

    def test_target_domain_error_exits_two(self, capsys):
        # example3's x1 x2 overflows to inf, where cmath.sin has a domain error
        code = main(["solve", "--target", "example3", "--x0", "1e172,1e172", "--alpha", "0.7"])
        out = capsys.readouterr().out
        assert code == 2
        assert "status=NumericalFailure  n=0" in out

    def test_missing_x0_exits_one(self, capsys):
        code = main(["solve", "--target", "poly", "--coeffs", "1,0,-1", "--alpha", "0.8"])
        err = capsys.readouterr().err
        assert code == 1
        assert "--x0" in err

    def test_unknown_target_exits_one(self, capsys):
        code = main(["solve", "--target", "mystery", "--x0", "1", "--alpha", "0.5"])
        assert code == 1

    def test_infinite_tolerances_exit_one(self, capsys):
        # with inf tolerances the first iterate, 0.386, was reported Converged
        code = main(
            ["solve", "--target", "poly", "--coeffs", "1,0,-1", "--x0", "3", "--alpha", "0.5",
             "--tol-step", "inf", "--tol-residual", "inf"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "tolerances must be positive and finite" in captured.err

    def test_trace_output(self, capsys):
        code = main(
            [
                "solve",
                "--target",
                "poly",
                "--coeffs",
                "1,0,-1",
                "--x0",
                "3",
                "--alpha",
                "0.8",
                "--trace",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "i=1" in out

    def test_trace_leaves_record_line_unchanged(self, capsys):
        # the trace keeps the norms the loop decides on, so tracing cannot
        # move the record
        argv = ["solve", "--target", "example3", "--x0", "0.86,0.86", "--alpha", "1.19"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main([*argv, "--trace"]) == 0
        record_line, *iterations = capsys.readouterr().out.splitlines()
        assert plain == record_line + "\n"
        assert "status=Converged  n=110" in record_line
        assert len(iterations) == 110

    def test_manifest_trace_text_is_case_blind(self, capsys, tmp_path):
        path = tmp_path / "m.manifest"
        path.write_text("target=poly\ncoeffs=1,0,-1\nx0=3\nalpha=0.8\ntrace=True\n")
        assert main(["solve", "--manifest", str(path)]) == 0
        record_line, *iterations = capsys.readouterr().out.splitlines()
        assert "status=Converged  n=28" in record_line
        assert len(iterations) == 28
        path.write_text("target=poly\ncoeffs=1,0,-1\nx0=3\nalpha=0.8\ntrace=NO\n")
        assert main(["solve", "--manifest", str(path)]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1

    def test_manifest_unknown_trace_text_exits_one(self, capsys, tmp_path):
        path = tmp_path / "m.manifest"
        path.write_text("target=poly\ncoeffs=1,0,-1\nx0=3\nalpha=0.8\ntrace=on\n")
        assert main(["solve", "--manifest", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "trace must be one of" in captured.err
        assert "'on'" in captured.err

    def test_manifest_supplies_defaults(self, capsys, tmp_path):
        path = tmp_path / "m.manifest"
        path.write_text("target=poly\ncoeffs=1,0,-1\nx0=3\nalpha=0.8\n")
        code = main(["solve", "--manifest", str(path)])
        assert code == 0
        assert "status=Converged" in capsys.readouterr().out

    def test_table_output_file(self, capsys, tmp_path):
        out_path = tmp_path / "solve.txt"
        code = main(
            [
                "solve",
                "--target",
                "poly",
                "--coeffs",
                "1,0,-1",
                "--x0",
                "3",
                "--alpha",
                "0.8",
                "--output",
                str(out_path),
            ]
        )
        assert code == 0
        assert capsys.readouterr().out == ""
        assert out_path.read_text().startswith("alpha=0.80000  status=Converged")

    def test_flags_override_manifest(self, capsys, tmp_path):
        path = tmp_path / "m.manifest"
        path.write_text("target=poly\ncoeffs=1,0,-1\nx0=3\nalpha=0.8\nepsilon=1e-2\n")
        code = main(["solve", "--manifest", str(path), "--alpha", "0.45", "--format", "jsonl"])
        assert code == 0
        _, _, payload = capsys.readouterr().out.partition("\n")
        (rec,) = read_records_jsonl(io.StringIO(payload))
        assert rec.alpha == 0.45
        f, x0 = polynomial([1, 0, -1]), np.array([3 + 0j])
        expected, _ = fpn_solve(f, x0, FpnConfig(alpha=0.45, epsilon=1e-2))
        default_epsilon, _ = fpn_solve(f, x0, FpnConfig(alpha=0.45))
        assert records_equal(rec, expected)
        assert not records_equal(rec, default_epsilon)


class TestParserReuse:
    """The calls of one process share a parser, which parsing leaves unchanged;
    a manifest's flags stay in the call that read it."""

    def test_manifest_does_not_leak_into_next_call(self, capsys, tmp_path):
        path = tmp_path / "m.manifest"
        path.write_text("target=poly\ncoeffs=1,0,-1\nx0=3\nalpha=0.8\nepsilon=1e-2\n")
        flags = ["--target", "poly", "--coeffs", "1,0,-1", "--x0", "3", "--alpha", "0.8"]
        records = []
        for argv in (["--manifest", str(path)], flags):
            assert main(["solve", *argv, "--format", "jsonl"]) == 0
            _, _, payload = capsys.readouterr().out.partition("\n")
            records.extend(read_records_jsonl(io.StringIO(payload)))
        f, x0 = polynomial([1, 0, -1]), np.array([3 + 0j])
        with_manifest, _ = fpn_solve(f, x0, FpnConfig(alpha=0.8, epsilon=1e-2))
        default_epsilon, _ = fpn_solve(f, x0, FpnConfig(alpha=0.8))
        assert records_equal(records[0], with_manifest)
        assert records_equal(records[1], default_epsilon)
        assert not records_equal(records[1], with_manifest)

    @pytest.mark.parametrize("argv", [["solve", "--alpha", "abc"], ["solve", "--help"]])
    def test_repeated_call_prints_the_same(self, capsys, argv):
        outcomes = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            captured = capsys.readouterr()
            outcomes.append((exc.value.code, captured.out, captured.err))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][1] or outcomes[0][2]


class TestArgumentChecks:
    """Flags and manifest values go through the same argparse types."""

    def test_non_numeric_flag_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--target", "poly", "--coeffs", "1,0,-1", "--x0", "3", "--alpha", "abc"])
        assert exc.value.code == 1
        assert "argument --alpha: invalid float value: 'abc'" in capsys.readouterr().err

    def test_non_numeric_manifest_value_exits_one(self, capsys, tmp_path):
        path = tmp_path / "m.manifest"
        path.write_text("target=poly\ncoeffs=1,0,-1\nx0=3\nalpha=0.8\nepsilon=abc\n")
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--manifest", str(path)])
        assert exc.value.code == 1
        assert "argument --epsilon: invalid float value: 'abc'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, manifest", [("solve", "alpha=0.8"), ("sweep", "grid=0.3:0.5:0.05")]
    )
    def test_manifest_unknown_format_exits_one(self, capsys, tmp_path, command, manifest):
        path = tmp_path / "m.manifest"
        path.write_text(f"target=poly\ncoeffs=1,0,-1\nx0=3\nformat=xml\n{manifest}\n")
        with pytest.raises(SystemExit) as exc:
            main([command, "--manifest", str(path)])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --format: invalid choice: 'xml'" in captured.err

    @pytest.mark.parametrize(
        "command, manifest, flag",
        [
            ("solve", "x0=3\nalpha=0.8\ncluster_tol=-1", "--cluster-tol=-1"),
            ("solve", "x0=3\nalpha=0.8\ngrid=0.3:0.5:0.05", "--grid=0.3:0.5:0.05"),
            ("sweep", "x0=3\ngrid=0.3:0.5:0.05\nalpha=zz", "--alpha=zz"),
            ("sweep", "x0=3\ngrid=0.3:0.5:0.05\ntrace=yes", "--trace"),
            ("stability", "xi=1\nalpha=0.5", "--alpha=0.5"),
        ],
    )
    def test_manifest_key_the_command_does_not_take_exits_one(
        self, capsys, tmp_path, command, manifest, flag
    ):
        # a manifest line is the flag of the same name, so a key the command
        # does not take is an unrecognized argument, as the flag would be
        path = tmp_path / "m.manifest"
        path.write_text(f"target=poly\ncoeffs=1,0,-1\n{manifest}\n")
        with pytest.raises(SystemExit) as exc:
            main([command, "--manifest", str(path)])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"fracroots: error: unrecognized arguments: {flag}\n")

    @pytest.mark.parametrize(
        "manifest, flags, message",
        [
            ("alpha=0.8\nformat=xml", ["--format", "csv"], "argument --format: invalid choice: 'xml'"),
            ("alpha=zz", ["--alpha", "0.8"], "argument --alpha: invalid float value: 'zz'"),
        ],
    )
    def test_bad_manifest_value_under_a_flag_exits_one(
        self, capsys, tmp_path, manifest, flags, message
    ):
        # as "--alpha zz --alpha 0.8" does: the flag wins, but the manifest
        # value is still checked
        path = tmp_path / "m.manifest"
        path.write_text(f"target=poly\ncoeffs=1,0,-1\nx0=3\n{manifest}\n")
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--manifest", str(path), *flags])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_manifest_x0_with_leading_dash_matches_the_flag(self, capsys, tmp_path):
        path = tmp_path / "m.manifest"
        path.write_text("target=poly\ncoeffs=1,0,1\nalpha=0.5\nformat=csv\nx0=-i\n")
        from_manifest = main(["solve", "--manifest", str(path)]), capsys.readouterr()
        argv = ["solve", "--target", "poly", "--coeffs", "1,0,1", "--alpha", "0.5"]
        from_flag = main([*argv, "--format", "csv", "--x0=-i"]), capsys.readouterr()
        assert from_manifest == from_flag
        assert from_flag[0] in (0, 2)
        assert "\nalpha,status," in from_flag[1].out

    @pytest.mark.parametrize("values", [("zz", "0.8"), ("0.5", "0.8")], ids=["bad-first", "both-valid"])
    def test_repeated_manifest_key_exits_one(self, capsys, tmp_path, values):
        # a repeated key would hide its earlier values from the check, so it is
        # a usage error whatever the values
        path = tmp_path / "m.manifest"
        path.write_text("target=poly\ncoeffs=1,0,-1\nx0=3\n" + "".join(f"alpha={v}\n" for v in values))
        assert main(["solve", "--manifest", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "fracroots: error: manifest key 'alpha' is repeated\n"

    def test_manifest_suite_key_is_unknown(self, capsys, tmp_path):
        # validate takes no --manifest, so suite= could never apply
        path = tmp_path / "m.manifest"
        path.write_text("target=poly\ncoeffs=1,0,-1\nx0=3\nalpha=0.8\nsuite=all\n")
        assert main(["solve", "--manifest", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown manifest key 'suite'" in captured.err

    @pytest.mark.parametrize(
        "command", [["solve", "--alpha", "0.5"], ["sweep", "--grid", "0.3:0.9:0.05"]]
    )
    @pytest.mark.parametrize("x0", ["-i", "-j", "-2i", "-inf"])
    def test_x0_with_leading_dash_and_imaginary_unit(self, capsys, command, x0):
        # "--x0 -i" is the value -i, as "--x0=-i" is, not an unknown option
        argv = [command[0], "--target", "poly", "--coeffs", "1,0,1", "--format", "csv"]
        argv += command[1:]
        separate = main([*argv, "--x0", x0]), capsys.readouterr()
        joined = main([*argv, f"--x0={x0}"]), capsys.readouterr()
        assert separate == joined
        if x0 == "-inf":
            assert separate[0] == 1
            assert "bad complex literal '-inf'" in separate[1].err
        else:
            assert separate[0] in (0, 2)
            assert separate[1].err == ""
            assert "\nalpha,status," in "\n" + separate[1].out


class TestSweepCommand:
    def test_table_output(self, capsys):
        code = main(
            [
                "sweep",
                "--target",
                "poly",
                "--coeffs",
                "1,0,-1",
                "--x0",
                "3",
                "--grid",
                "0.3:0.9:0.05",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("alpha")
        assert "unique_roots=" in out
        lines = out.splitlines()
        assert lines[0].split()[-1] == "hits"
        # 1-component roots keep the 36-character root column
        assert lines[0] == f"{'alpha':<10} {'x_n':<36} step        residual    n     hits"
        hits = sum(int(line.split()[-1]) for line in lines[1:-1])
        assert f" converged={hits} " in lines[-1]

    @pytest.mark.parametrize(
        "argv",
        [
            ["--target", "poly", "--coeffs", "1,0,-1", "--x0", "3", "--grid", "0.3:0.9:0.05"],
            ["--target", "example3", "--x0", "0.86,0.86", "--grid", "0.65:1.3:5e-3"],
        ],
    )
    def test_table_columns_align(self, capsys, argv):
        assert main(["sweep", *argv]) == 0
        lines = capsys.readouterr().out.splitlines()
        header, rows = lines[0], lines[1:-1]
        col = header.index("step")
        assert rows
        for row in rows:
            assert row[col - 1] == " " and re.match(r"\d\.\d{3}e[-+]\d{2} ", row[col:]), row

    def test_csv_file_round_trip(self, capsys, tmp_path):
        out_path = tmp_path / "report.csv"
        code = main(
            [
                "sweep",
                "--target",
                "poly",
                "--coeffs",
                "1,0,-1",
                "--x0",
                "3",
                "--grid",
                "0.3:0.9:0.05",
                "--format",
                "csv",
                "--output",
                str(out_path),
            ]
        )
        assert code == 0
        with open(out_path) as fh:
            parsed = read_records_csv(fh)
        # regenerate in-process to compare
        from fracroots.sweep import AlphaGrid, run_sweep

        report = run_sweep(
            polynomial([1, 0, -1]),
            np.array([3 + 0j]),
            AlphaGrid(0.3, 0.9, 0.05),
            FpnConfig(alpha=0.5),
        )
        assert len(parsed) == len(report.records)
        assert all(records_equal(a, b) for a, b in zip(report.records, parsed))

    def test_jsonl_stdout(self, capsys):
        code = main(
            [
                "sweep",
                "--target",
                "poly",
                "--coeffs",
                "1,0,-1",
                "--x0",
                "3",
                "--grid",
                "0.3:0.5:0.05",
                "--format",
                "jsonl",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines() if line.strip()]
        assert all("alpha" in row for row in rows)

    def test_unbounded_grid_exits_one(self, capsys):
        argv = ["sweep", "--target", "poly", "--coeffs", "1,0,-1", "--x0", "3"]
        assert main([*argv, "--grid", "-2:2:1e-12"]) == 1
        assert "grid has 4,000,000,000,001 orders" in capsys.readouterr().err

    def test_missing_grid_exits_one(self, capsys):
        code = main(["sweep", "--target", "poly", "--coeffs", "1,0,-1", "--x0", "3"])
        assert code == 1

    def test_leading_dash_values_parse(self, capsys):
        code = main(
            [
                "sweep",
                "--target",
                "poly",
                "--coeffs",
                "1,0,-1",
                "--x0",
                "-3",
                "--grid",
                "-0.7:-0.3:0.05",
            ]
        )
        assert code == 0
        code = main(
            [
                "solve",
                "--target",
                "example3",
                "--x0",
                "-0.15442216,1.14021866",
                "--alpha",
                "0.72889",
            ]
        )
        assert code == 0
        assert "status=Converged" in capsys.readouterr().out

    def test_unwritable_output_exits_three(self, capsys, tmp_path):
        code = main(
            [
                "sweep",
                "--target",
                "poly",
                "--coeffs",
                "1,0,-1",
                "--x0",
                "3",
                "--grid",
                "0.3:0.5:0.05",
                "--format",
                "csv",
                "--output",
                str(tmp_path / "missing-dir" / "report.csv"),
            ]
        )
        assert code == 3


class TestStabilityCommand:
    def test_exact_zero_probe(self, capsys):
        code = main(["stability", "--xi", "-2", "--delta", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "|f|=0.000000e+00" in out

    def test_probe_near_minus_forty(self, capsys):
        code = main(["stability", "--xi", "-40", "--delta", "1e-12"])
        out = capsys.readouterr().out
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln.startswith("delta=")]
        assert len(lines) == 3
        magnitudes = [float(ln.split("|f|=")[1]) for ln in lines]
        assert magnitudes[1] == 0.0
        assert all(2.4e3 <= m <= 9.6e3 for m in (magnitudes[0], magnitudes[2]))

    @pytest.mark.parametrize("delta", ["nan", "inf"])
    def test_non_finite_delta_exits_one(self, capsys, delta):
        code = main(["stability", "--xi", "-40", "--delta", delta])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "probe offsets delta must be finite" in captured.err

    @pytest.mark.parametrize(
        "argv", [["--target", "example3", "--xi", "1"], ["--target", "ci", "--xi", "1,2"]]
    )
    def test_wrong_dimension_exits_one(self, capsys, argv):
        code = main(["stability", *argv])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("fracroots: error: probe point has dimension ")

    def test_polynomial_probe(self, capsys):
        code = main(
            ["stability", "--target", "poly", "--coeffs", "1,-1", "--xi", "1", "--delta", "1e-12"]
        )
        out = capsys.readouterr().out
        assert code == 0
        magnitudes = [float(ln.split("|f|=")[1]) for ln in out.splitlines() if "|f|=" in ln]
        assert magnitudes[0] == pytest.approx(1e-12, rel=1e-3)
        assert magnitudes[-1] == pytest.approx(1e-12, rel=1e-3)


class TestValidateCommand:
    def test_single_suite(self, capsys):
        code = main(["validate", "--suite", "prop2-limit"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("prop2-limit: PASS")

    def test_all_suites(self, capsys):
        code = main(["validate"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("PASS") == 3

    def test_unknown_suite(self, capsys):
        code = main(["validate", "--suite", "nonsense"])
        assert code == 1

    def test_failing_suite_exits_two(self, capsys, monkeypatch):
        from fracroots import validation

        monkeypatch.setitem(validation.SUITES, "always-fail", lambda: (False, "forced"))
        code = main(["validate", "--suite", "always-fail"])
        out = capsys.readouterr().out
        assert code == 2
        assert "always-fail: FAIL" in out

    def test_suite_registry_names(self):
        from fracroots.validation import SUITES

        assert list(SUITES) == ["monomial-oracle", "semigroup", "prop2-limit"]
