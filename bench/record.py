#!/usr/bin/env python3
"""Record the fixed data the benchmark reads, from the code under src/.

    python3 bench/record.py specfun
    python3 bench/record.py roots zeta-sweep ci-sweep ex3-sweep single-shot

`specfun` runs one traced single-shot pass and writes the arguments the
library passes log_gamma_complex and incomplete_beta_regularized, one list
per call, sorted, to data/specfun_args.json; traced runs time the special
functions on them.

`roots` runs each named workload once per grid shift (SHIFTS of them; one
for single-shot, whose orders do not depend on the seed) and writes the
reference roots each run recovers to data/reference_roots.json.  Timed runs
report the share of these that they still recover (roots_kept).  Each name
replaces only its own entry, so workloads may be recorded one at a time.

Both files describe the code they were recorded from.  Record them again only
when a change to that code is meant to change them, and say so.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import tracing  # noqa: E402
import workloads  # noqa: E402


def record_specfun() -> None:
    tracer = tracing.Tracer()
    workloads.make_workload("single-shot", 0).run_pass(tracer)
    _write(tracing.SPECFUN_ARGS,
           {name: sorted(calls) for name, calls in tracer.specfun_args.items()})


def record_roots(names: list[str]) -> None:
    found = {}
    for name in names:
        shifts = 1 if name == "single-shot" else workloads.SHIFTS
        found[name] = []
        for seed in range(shifts):
            wl = workloads.make_workload(name, seed)
            found[name].append(sorted(workloads.reference_roots_found(wl, wl.run_pass())))
            print(name, seed, len(found[name][-1]), flush=True)
    path = workloads.DATA / "reference_roots.json"
    table = json.loads(path.read_text()) if path.exists() else {}
    table.update(found)
    _write(path, {name: table[name] for name in workloads.WORKLOADS if name in table})


def _write(path: Path, data: dict[str, list[list]]) -> None:
    """JSON with one line per row of each entry."""
    entries = [
        f" {json.dumps(name)}: [\n" + ",\n".join(f"  {json.dumps(row)}" for row in rows) + "\n ]"
        for name, rows in data.items()
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("{\n" + ",\n".join(entries) + "\n}\n")


def main(argv: list[str]) -> int:
    if argv[:1] == ["specfun"] and len(argv) == 1:
        record_specfun()
    elif argv[:1] == ["roots"] and len(argv) > 1 and set(argv[1:]) <= set(workloads.WORKLOADS):
        record_roots(argv[1:])
    else:
        print(__doc__, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
