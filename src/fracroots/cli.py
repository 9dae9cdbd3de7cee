"""Command-line front end.

Subcommands: solve (single order), sweep (order grid), stability (residual
probes around a point), validate (fractional-derivative oracle suites).
Results print as a table or go to csv/jsonl with full-precision fields.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import re
import sys
from pathlib import Path
from typing import Callable, Sequence, TextIO

import numpy as np

from .errors import DomainError, EvaluationError, QuadratureError
from .solver import FpnConfig, IterationTrace, RootRecord, SolveStatus, _solve
from .sweep import AlphaGrid, SweepReport, run_sweep, stability_probe
from .targets import (
    REGISTRY_NAMES,
    make_target,
    parse_complex_vector,
    zeta_functional_target,
)
from .validation import SUITES, run_suites

__all__ = [
    "main",
    "entrypoint",
    "parse_grid",
    "load_manifest",
    "format_complex",
    "write_records_csv",
    "read_records_csv",
    "write_records_jsonl",
    "read_records_jsonl",
]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOT_CONVERGED = 2
EXIT_IO = 3

_CONFIG_KEYS = ("epsilon", "tol_step", "tol_residual", "max_iter", "round_m")
_MANIFEST_KEYS = (
    "target",
    "k",
    "coeffs",
    "x0",
    "alpha",
    "grid",
    "cluster_tol",
    "output",
    "format",
    "xi",
    "delta",
    "suite",
    "trace",
) + _CONFIG_KEYS
_TRACE_TEXT = {"true": True, "false": False, "yes": True, "no": False, "1": True, "0": False}


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1, not argparse's default 2
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # accept values like "-1.2:0.35:0.005", "-0.15,1.14" or "-i" without
        # forcing --flag=value; no option name starts with a digit, ".", "i"
        # or "j" (the imaginary unit parse_complex accepts)
        self._negative_number_matcher = re.compile(r"^-[\d.ij]")

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def parse_grid(text: str) -> AlphaGrid:
    """Parse 'lo:hi:step' into an AlphaGrid."""
    parts = text.split(":")
    if len(parts) != 3:
        raise DomainError(f"grid must look like lo:hi:step, got {text!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError:
        raise DomainError(f"grid must be numeric lo:hi:step, got {text!r}") from None
    return AlphaGrid(lo=lo, hi=hi, step=step)


def format_complex(z: complex) -> str:
    if z.imag == 0.0:
        return f"{z.real:.8f}"
    return f"{z.real:.8f}{z.imag:+.8f}i"


def load_manifest(path: str | Path) -> dict[str, str]:
    """Flat key=value manifest; keys match the CLI flag names."""
    entries: dict[str, str] = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise DomainError(f"manifest line {raw!r} is not key=value")
        key = key.strip()
        if key not in _MANIFEST_KEYS:
            raise DomainError(f"unknown manifest key {key!r}")
        entries[key] = value.strip()
    return entries


# --- record serialization ---------------------------------------------------

_BASE_FIELDS = ("alpha", "status", "iterations", "step_norm", "residual_norm")


def _record_fields(dimension: int) -> list[str]:
    fields = list(_BASE_FIELDS)
    for k in range(dimension):
        fields.append(f"root_re_{k}")
        fields.append(f"root_im_{k}")
    return fields


def _record_values(rec: RootRecord) -> dict[str, object]:
    row: dict[str, object] = {
        "alpha": rec.alpha,
        "status": rec.status.name,
        "iterations": rec.iterations,
        "step_norm": rec.step_norm,
        "residual_norm": rec.residual_norm,
    }
    for k in range(rec.root.shape[0]):
        z = complex(rec.root[k])
        row[f"root_re_{k}"] = z.real
        row[f"root_im_{k}"] = z.imag
    return row


def _record_from_values(row: dict[str, object]) -> RootRecord:
    dim = sum(1 for key in row if key.startswith("root_re_"))
    root = np.array(
        [
            complex(float(row[f"root_re_{k}"]), float(row[f"root_im_{k}"]))
            for k in range(dim)
        ],
        dtype=np.complex128,
    )
    return RootRecord(
        alpha=float(row["alpha"]),
        root=root,
        step_norm=float(row["step_norm"]),
        residual_norm=float(row["residual_norm"]),
        iterations=int(row["iterations"]),
        status=SolveStatus[str(row["status"])],
    )


def write_records_csv(fh: TextIO, records: Sequence[RootRecord]) -> None:
    # the columns are the widest record's; a narrower record leaves both
    # cells of each component it lacks empty
    fields = _record_fields(max((rec.root.shape[0] for rec in records), default=0))
    writer = csv.DictWriter(fh, fields, lineterminator="\n")
    writer.writeheader()
    writer.writerows(_record_values(rec) for rec in records)


def read_records_csv(fh: TextIO) -> list[RootRecord]:
    records = []
    for row in csv.DictReader(fh):
        # trailing empty root pairs are components this record does not have
        dim = sum(1 for key in row if key.startswith("root_re_"))
        while dim and row[f"root_re_{dim - 1}"] == row[f"root_im_{dim - 1}"] == "":
            dim -= 1
            del row[f"root_re_{dim}"], row[f"root_im_{dim}"]
        records.append(_record_from_values(row))
    return records


def write_records_jsonl(fh: TextIO, records: Sequence[RootRecord]) -> None:
    for rec in records:
        fh.write(json.dumps(_record_values(rec)) + "\n")


def read_records_jsonl(fh: TextIO) -> list[RootRecord]:
    return [
        _record_from_values(json.loads(line))
        for line in fh.read().splitlines()
        if line.strip()
    ]


# --- output helpers ----------------------------------------------------------

_FORMATS = ("table", "csv", "jsonl")
_RECORD_WRITERS = {"csv": write_records_csv, "jsonl": write_records_jsonl}


def _print_record(rec: RootRecord, out: TextIO) -> None:
    root = ", ".join(format_complex(complex(z)) for z in rec.root)
    out.write(
        f"alpha={rec.alpha:.5f}  status={rec.status.name}  n={rec.iterations}  "
        f"root=({root})  step={rec.step_norm:.5e}  residual={rec.residual_norm:.5e}\n"
    )


def _sweep_table(report: SweepReport, out: TextIO) -> None:
    roots = [", ".join(format_complex(complex(z)) for z in u.root) for u in report.unique_roots]
    width = max([36, *map(len, roots)])
    out.write(f"{'alpha':<10} {'x_n':<{width}} step        residual    n     hits\n")
    for unique, root in zip(report.unique_roots, roots):
        best = unique.best_record
        out.write(
            f"{best.alpha:<10.5f} {root:<{width}} {best.step_norm:<11.3e} "
            f"{best.residual_norm:<11.3e} {best.iterations:<5d} {unique.multiplicity_count}\n"
        )
    converged = sum(1 for r in report.records if r.status is SolveStatus.Converged)
    out.write(
        f"# runs={len(report.records)} converged={converged} "
        f"unique_roots={len(report.unique_roots)}\n"
    )


def _emit(args, table: Callable[[TextIO], None], records: Sequence[RootRecord]) -> None:
    """Write the table, or the records in csv/jsonl, to --output or stdout."""

    def write(fh: TextIO) -> None:
        if args.format == "table":
            table(fh)
        else:
            _RECORD_WRITERS[args.format](fh, records)

    if args.output:
        with open(args.output, "w") as fh:
            write(fh)
    else:
        write(sys.stdout)


# --- argument plumbing -------------------------------------------------------

def _format_arg(text: str) -> str:
    # a type rather than choices: argparse checks choices only on flags,
    # never on a default, and manifest values arrive as defaults
    if text not in _FORMATS:
        choices = ", ".join(map(repr, _FORMATS))
        raise argparse.ArgumentTypeError(f"invalid choice: {text!r} (choose from {choices})")
    return text


def _add_target_args(p: argparse.ArgumentParser, target_help: str) -> None:
    p.add_argument("--target", help=target_help)
    p.add_argument("--k", type=int, default=50, help="series truncation (default %(default)s)")
    p.add_argument("--coeffs", help="poly coefficients, comma-separated complex literals")
    p.add_argument("--manifest", help="flat key=value manifest file; flags override it")


def _add_solver_args(p: argparse.ArgumentParser) -> None:
    _add_target_args(p, f"target name, one of: {', '.join(REGISTRY_NAMES)}")
    p.add_argument("--x0", help="initial condition, comma-separated complex literals")
    for flag, kind, default, text in (
        ("--epsilon", float, FpnConfig.epsilon, "regularizer"),
        ("--tol-step", float, FpnConfig.tol_step, "step tolerance"),
        ("--tol-residual", float, FpnConfig.tol_residual, "residual tolerance"),
        ("--max-iter", int, FpnConfig.max_iter, "iteration cap"),
        ("--round-m", int, FpnConfig.round_exponent_m, "rounding exponent m"),
    ):
        p.add_argument(flag, type=kind, default=default, help=f"{text} (default %(default)s)")
    p.add_argument("--output", help="write results to this path instead of stdout")
    p.add_argument(
        "--format",
        type=_format_arg,
        default="table",
        metavar="{%s}" % ",".join(_FORMATS),
        help="output format (default %(default)s)",
    )


def _require(args: argparse.Namespace, *keys: str) -> None:
    for key in keys:
        if getattr(args, key) is None:
            raise DomainError(f"--{key} is required")


def _build_config(args: argparse.Namespace, alpha: float) -> FpnConfig:
    return FpnConfig(
        alpha=alpha,
        epsilon=args.epsilon,
        tol_step=args.tol_step,
        tol_residual=args.tol_residual,
        max_iter=args.max_iter,
        round_exponent_m=args.round_m,
    )


# --- commands ----------------------------------------------------------------

def cmd_solve(args: argparse.Namespace) -> int:
    _require(args, "target", "x0", "alpha")
    target = make_target(args.target, k=args.k, coeffs=args.coeffs)
    x0 = parse_complex_vector(args.x0)
    # --trace gives True, a manifest gives text
    text = str(args.trace).lower()
    if text not in _TRACE_TEXT:
        choices = ", ".join(_TRACE_TEXT)
        raise DomainError(f"trace must be one of {choices} in any case, got {args.trace!r}")
    trace = IterationTrace() if _TRACE_TEXT[text] else None
    config = _build_config(args, args.alpha)
    record = _solve(target, x0, config, [config.alpha], trace)[0]

    def table(out: TextIO) -> None:
        _print_record(record, out)
        if trace is not None:
            for i, (step, res) in enumerate(zip(trace.step_norms, trace.residual_norms), start=1):
                point = ", ".join(format_complex(complex(z)) for z in trace.iterates[i])
                out.write(f"  i={i:<4d} x=({point})  step={step:.5e}  residual={res:.5e}\n")

    # with csv/jsonl the record line still goes to stdout, ahead of the records
    if args.format != "table":
        table(sys.stdout)
    _emit(args, table, [record])
    return EXIT_OK if record.status is SolveStatus.Converged else EXIT_NOT_CONVERGED


def cmd_sweep(args: argparse.Namespace) -> int:
    _require(args, "target", "x0", "grid")
    target = make_target(args.target, k=args.k, coeffs=args.coeffs)
    x0 = parse_complex_vector(args.x0)
    grid = parse_grid(args.grid)
    config = _build_config(args, grid.values()[0])
    report = run_sweep(target, x0, grid, config, cluster_tol=args.cluster_tol)
    _emit(args, lambda out: _sweep_table(report, out), report.records)
    return EXIT_OK


def cmd_stability(args: argparse.Namespace) -> int:
    _require(args, "xi")
    xi = parse_complex_vector(args.xi)
    if args.target == "zeta-func":
        target = zeta_functional_target(k=args.k)
    else:
        target = make_target(args.target, k=args.k, coeffs=args.coeffs)
    deltas = sorted({-args.delta, 0.0, args.delta})
    for d, value in stability_probe(target, xi, deltas):
        sys.stdout.write(f"delta={d:+.3e}  |f|={value:.6e}\n")
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    names = [args.suite] if args.suite else None
    if names and names[0] not in SUITES:
        raise DomainError(f"unknown suite {names[0]!r}; known: {', '.join(SUITES)}")
    results = run_suites(names)
    all_ok = True
    for name, ok, detail in results:
        sys.stdout.write(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})\n")
        all_ok = all_ok and ok
    return EXIT_OK if all_ok else EXIT_NOT_CONVERGED


def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    """The top-level parser and the subcommand parsers by name."""
    parser = _Parser(prog="fracroots", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_solve = sub.add_parser("solve", help="run a single solve at one fractional order")
    _add_solver_args(p_solve)
    p_solve.add_argument("--alpha", type=float, help="fractional order")
    p_solve.add_argument("--trace", action="store_true", help="print iterates")
    p_solve.set_defaults(func=cmd_solve)

    p_sweep = sub.add_parser("sweep", help="sweep the solver over an order grid")
    _add_solver_args(p_sweep)
    p_sweep.add_argument("--grid", help="order grid lo:hi:step")
    p_sweep.add_argument(
        "--cluster-tol", type=float, default=1e-4, help="root dedup tolerance (default %(default)s)"
    )
    p_sweep.set_defaults(func=cmd_sweep)

    p_stab = sub.add_parser("stability", help="probe residuals around a point")
    p_stab.add_argument("--xi", help="probe point, comma-separated complex literals")
    p_stab.add_argument(
        "--delta", type=float, default=1e-12, help="real probe offset (default %(default)s)"
    )
    _add_target_args(p_stab, "target name or zeta-func (default)")
    p_stab.set_defaults(func=cmd_stability, target="zeta-func")

    p_val = sub.add_parser("validate", help="run the fractional-derivative oracle suites")
    p_val.add_argument("--suite", help=f"run one suite, one of: {', '.join(SUITES)}")
    p_val.set_defaults(func=cmd_validate)

    return parser, sub.choices


@functools.cache
def _shared_parser() -> _Parser:
    # parsing leaves a parser unchanged, so the calls of a process share one
    return _build_parser()[0]


def main(argv: Sequence[str] | None = None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        if getattr(args, "manifest", None):
            # manifest values become the defaults of a fresh parser, so they
            # never reach a later call; argparse types and checks them like
            # flags, and the flags given still win
            parser, commands = _build_parser()
            commands[args.command].set_defaults(**load_manifest(args.manifest))
            args = parser.parse_args(argv)
        return args.func(args)
    except OSError as exc:
        sys.stderr.write(f"fracroots: i/o error: {exc}\n")
        return EXIT_IO
    except (DomainError, EvaluationError, QuadratureError, OverflowError) as exc:
        sys.stderr.write(f"fracroots: error: {exc}\n")
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
