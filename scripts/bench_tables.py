#!/usr/bin/env python3
"""Write BENCH_tables.json, the record of the paper's 32 table runs.

Runs ``reproduce_table`` for tables 1 and 2 once, into a temporary directory
that is removed afterwards, and prints two lines. The first is
``sha256 <hex> <n> files``: the SHA-256 of all output files' bytes, read in
path order. The second is ``iterates <hex>``: the SHA-256 of the trace files
alone, in path order, with their violation columns ``cB_x`` and ``cA_y``
left out, so a change that rounds only the violations differently keeps
it. Two checkouts that print the same lines wrote the same bytes.

Then runs every table run through ``solve_config`` ``--repeats`` times
(default 3) and writes for each: the stop code, the outer and inner
iteration counts, ``min_violation`` as ``repr`` (so it round-trips), the
inner calls per ``CondGStop`` reason, read from the report's
``inner_results``, the CPU time (the minimum of ``time.process_time`` over
the repeats) and the SHA-256 of its trace file. Every repeat must give the
same counts, and the same stop code and outer count as the table run. One
more solve of each run, apart from the timed repeats and with the bodies
already built, counts its work: ``opcodes``, the bytecode instructions run
(``sys.settrace`` with ``f_trace_opcodes``), and ``c_calls``, the calls of
C functions (``sys.setprofile``'s ``c_call`` events). The file also holds
the two digests, the commit, the Python and numpy versions, the BLAS build
and the thread variables. Codes and counts are the record; CPU times vary
between machines and runs. The work counts repeat exactly where CPU times
drift, so a perf change on the 2-D path can state its effect in them. They
hold for one Python minor version, whose bytecode they count (the committed
record and CI's record diff use 3.11), and see nothing of the work inside
one C call, such as a matrix-vector product at n = 256, so they describe
the 2-D tables well and perfbench's ``nd_pairs`` poorly. Tracing makes the
counted solve about 20x slower, so tier-1's test of this script calls
``main(argv)`` in process with ``work_counts`` stubbed, and another test
checks that ``work_counts`` repeats on one short run; a third holds a fresh
solve of the 32 runs to this file's stable quantities (README,
"Rounding-sensitive results").

Usage:
    python scripts/bench_tables.py [--out PATH] [--repeats N]
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np

from feasib import CondGStop
from feasib.instances import solve_config, table_config
from feasib.runner import reproduce_table

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
VIOLATION_COLUMNS = ("cB_x", "cA_y")


def record(which: int, label: str, solver: str, repeats: int) -> dict:
    """One run's entry: its counts, checked equal on every repeat, and the
    least CPU time."""
    config = table_config(which, label, solver)
    config.bodies  # built before timing, as a run reuses them
    entries, cpu = [], []
    for _ in range(repeats):
        start = time.process_time()
        report = solve_config(config)
        cpu.append(time.process_time() - start)
        stops = Counter(res.stop_reason for row in report.inner_results for res in row)
        entries.append({
            "table": which,
            "instance": label,
            "solver": solver,
            "stop": report.stop_code.letter,
            "outer_iters": report.outer_iters,
            "inner_iters": report.inner_iter_total,
            "min_violation": repr(report.min_violation),
            "inner_stops": {reason.value: stops[reason] for reason in CondGStop},
        })
    if any(entry != entries[0] for entry in entries):
        raise RuntimeError(f"table {which} {label} {solver}: repeats disagree")
    opcodes, c_calls = work_counts(config)
    return {**entries[0], "cpu_s": min(cpu), "opcodes": opcodes, "c_calls": c_calls}


def work_counts(config) -> tuple[int, int]:
    """The bytecode instructions and the C-function calls of one
    ``solve_config(config)``."""
    opcodes = c_calls = 0

    def opcode(frame, event, arg):
        nonlocal opcodes
        if event == "opcode":
            opcodes += 1
        return opcode

    def call(frame, event, arg):  # each new frame reports opcodes, not lines
        frame.f_trace_lines, frame.f_trace_opcodes = False, True
        return opcode

    def profile(frame, event, arg):
        nonlocal c_calls
        if event == "c_call":
            c_calls += 1

    sys.settrace(call)
    sys.setprofile(profile)
    try:
        solve_config(config)
    finally:
        sys.setprofile(None)
        sys.settrace(None)
    return opcodes, c_calls


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


def iterates_digest(traces) -> str:
    """SHA-256 of the trace files' lines without their violation columns."""
    digest = hashlib.sha256()
    for path in traces:
        header, *lines = path.read_text().splitlines()
        names = header.split(",")
        keep = [i for i, name in enumerate(names) if name not in VIOLATION_COLUMNS]
        for line in (header, *lines):
            fields = line.split(",")
            digest.update((",".join(fields[i] for i in keep) + "\n").encode())
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_tables.json")
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    with tempfile.TemporaryDirectory() as tmp:
        tables = Path(tmp)
        rows = [(which, row) for which in (1, 2) for row in reproduce_table(which, tables)]
        files = sorted(tables.iterdir())
        digest = hashlib.sha256()
        for path in files:
            digest.update(path.read_bytes())
        sha256 = digest.hexdigest()
        iterates = iterates_digest(path for path in files if path.name.endswith("_trace.csv"))
        print(f"sha256 {sha256} {len(files)} files")
        print(f"iterates {iterates}")
        runs = []
        for which, row in rows:
            run = record(which, row.instance, row.solver, args.repeats)
            if (run["stop"], run["outer_iters"]) != (row.stop_code, row.iters):
                at = f"table {which} {row.instance} {row.solver}"
                raise RuntimeError(f"{at}: the table run and the repeats disagree")
            trace = (tables / f"table_{row.instance}_{row.solver}_trace.csv").read_bytes()
            runs.append({**run, "trace_sha256": hashlib.sha256(trace).hexdigest()})
    out = {
        **environment(),
        "repeats": args.repeats,
        "sha256": sha256,
        "iterates": iterates,
        "runs": runs,
    }
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
