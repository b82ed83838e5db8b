#!/usr/bin/env python3
"""Write BENCH_tables.json, the record of the paper's 32 table runs.

Runs every run of tables 1 and 2 (``table_config``) through ``solve_config``
``--repeats`` times (default 3) and writes for each: the stop code, the
outer and inner iteration counts, ``min_violation`` as ``repr`` (so it
round-trips), the CPU time (the minimum of ``time.process_time`` over the
repeats) and the inner calls per ``CondGStop`` reason. The script counts
those by wrapping ``feasib.solvers.condg_project`` while it runs, and
restores it afterwards; every repeat must give the same counts. The file
also records the commit, the Python and numpy versions, the BLAS build and
the thread variables. Codes and counts are the record; CPU times vary
between machines and runs.

Usage:
    python scripts/bench_tables.py [--out PATH] [--repeats N]
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np

from feasib import CondGStop, solvers
from feasib.instances import solve_config, table_config, table_reference

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@contextmanager
def inner_stops():
    """Count the stop reasons of the solvers' inner projections into the
    dict it yields, by wrapping ``solvers.condg_project``."""
    counts = {}
    original = solvers.condg_project

    def counted(*args, **kwargs):
        res = original(*args, **kwargs)
        counts[res.stop_reason.value] += 1
        return res

    solvers.condg_project = counted
    try:
        yield counts
    finally:
        solvers.condg_project = original


def record(which: int, label: str, solver: str, repeats: int) -> dict:
    """One run's entry: its counts, checked equal on every repeat, and the
    least CPU time."""
    config = table_config(which, label, solver)
    config.bodies  # built before timing, as a run reuses them
    entries, cpu = [], []
    for _ in range(repeats):
        with inner_stops() as counts:
            counts.update((reason.value, 0) for reason in CondGStop)
            start = time.process_time()
            report = solve_config(config)
            cpu.append(time.process_time() - start)
        entries.append({
            "table": which,
            "instance": label,
            "solver": solver,
            "stop": report.stop_code.letter,
            "outer_iters": report.outer_iters,
            "inner_iters": report.inner_iter_total,
            "min_violation": repr(report.min_violation),
            "inner_stops": dict(counts),
        })
    if any(entry != entries[0] for entry in entries):
        raise RuntimeError(f"table {which} {label} {solver}: repeats disagree")
    return {**entries[0], "cpu_s": min(cpu)}


def environment() -> dict:
    try:
        commit = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=12"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):  # numpy before 1.25 only prints its config
        blas = "unknown"
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {name: os.environ.get(name) for name in THREAD_VARIABLES},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_tables.json")
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    runs = [
        record(which, label, solver, args.repeats)
        for which in (1, 2)
        for label, row in table_reference(which).items()
        for solver in row
    ]
    out = {**environment(), "repeats": args.repeats, "runs": runs}
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
