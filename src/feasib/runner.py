"""Execute configured instances and write trace, summary, and table files.

File conventions:

* trace CSV -- one row per outer iteration, header
  ``k,x1,...,xn,y1,...,yn,cB_x,cA_y,gamma,theta,lambda,inner_iters``.
  Floats use 17 significant digits so values round-trip exactly. Rows where
  no y-iterate exists yet write ``nan`` coordinates and an ``inf`` violation.
* summary JSON -- ``{stop_code, outer_iters, min_violation, wall_time}``
  with single-letter stop codes (C converged, L lack of progress,
  I iteration cap).
* comparison CSV -- one row per (instance, solver) with the measured stop
  code and final violation next to the transcribed reference values.
"""

from __future__ import annotations

import csv
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from .instances import (
    InstanceConfig,
    build_schedule,
    table1_config,
    table2_config,
    table_reference,
    validate_config,
)
from .solvers import (
    SolveReport,
    acondg1,
    acondg2,
    averaged_projection,
    exact_alternating,
)

__all__ = [
    "reproduce_table",
    "run_instance",
    "solve_config",
    "trace_rows",
    "write_trace_csv",
]


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def solve_config(config: InstanceConfig) -> SolveReport:
    """Validate and build the instance, then run its solver."""
    a, b = validate_config(config)
    stop = config.stopping
    schedule = build_schedule(config)
    solver = config.solver
    if solver == "ACondG1":
        return acondg1(a, b, config.x0, schedule, stop)
    if solver == "ACondG2":
        return acondg2(a, b, config.x0, config.y0, schedule, stop)
    if solver == "Averaged":
        return averaged_projection(a, b, config.x0, config.y0, schedule, stop)
    # ExactAlt1 ignores y0; ExactAlt2 uses it for the initial checks.
    y0 = config.y0 if solver == "ExactAlt2" else None
    return exact_alternating(a, b, config.x0, stop, y0=y0)


def trace_rows(report: SolveReport, dim: int):
    """Yield trace CSV rows (as lists of strings) for ``report``."""
    n_rows = len(report.x_trace)
    y_offset = n_rows - len(report.y_trace)
    for k in range(n_rows):
        x = report.x_trace[k]
        if k - y_offset >= 0:
            y = report.y_trace[k - y_offset]
            y_cols = [_fmt(c) for c in y]
        else:
            y_cols = ["nan"] * dim
        cb, ca = report.violations[k]
        params = report.schedule_trace[k]
        yield (
            [str(k)]
            + [_fmt(c) for c in x]
            + y_cols
            + [
                _fmt(cb),
                _fmt(ca),
                _fmt(params.gamma),
                _fmt(params.theta),
                _fmt(params.lam),
                str(report.inner_iters_per_k[k]),
            ]
        )


def write_trace_csv(path, report: SolveReport, dim: int) -> None:
    header = (
        ["k"]
        + [f"x{i}" for i in range(1, dim + 1)]
        + [f"y{i}" for i in range(1, dim + 1)]
        + ["cB_x", "cA_y", "gamma", "theta", "lambda", "inner_iters"]
    )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(trace_rows(report, dim))


def _write_summary(path, report: SolveReport, wall_time: float) -> None:
    summary = {
        "stop_code": report.stop_code.letter,
        "outer_iters": report.outer_iters,
        "min_violation": report.min_violation,
        "wall_time": wall_time,
    }
    Path(path).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")


def run_instance(
    config: InstanceConfig, out_dir, stem: str = "instance"
) -> tuple[SolveReport, Path]:
    """Run one instance; write its trace CSV and summary JSON.

    Returns the report and the trace path. Nothing is written when
    validation fails.
    """
    start = time.perf_counter()
    report = solve_config(config)
    wall = time.perf_counter() - start
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = out_dir / f"{stem}_trace.csv"
    write_trace_csv(trace_path, report, config.dimension)
    _write_summary(out_dir / f"{stem}_summary.json", report, wall)
    return report, trace_path


def _run_table_job(args) -> tuple[str, str, str, int, float]:
    label, solver, config, out_dir = args
    report = solve_config(config)
    stem = f"table_{label}_{solver}"
    write_trace_csv(Path(out_dir) / f"{stem}_trace.csv", report, config.dimension)
    return (
        label,
        solver,
        report.stop_code.letter,
        report.outer_iters,
        report.min_violation,
    )


def reproduce_table(which: int, out_dir) -> Path:
    """Run every (instance, solver) pair of ``table_reference(which)``.

    Writes one trace CSV per run plus ``table{which}_comparison.csv`` with
    measured and reference results side by side. ``FEASIB_THREADS`` sets the
    worker count (1 if unset); output bytes do not depend on it.
    """
    reference = table_reference(which)
    make = table1_config if which == 1 else table2_config
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    jobs = [
        (label, solver, make(label, solver), str(out_dir))
        for label, solvers in reference.items()
        for solver in solvers
    ]
    workers = int(os.environ.get("FEASIB_THREADS", "1"))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_table_job, jobs))
    else:
        results = [_run_table_job(job) for job in jobs]

    path = out_dir / f"table{which}_comparison.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            [
                "instance",
                "solver",
                "stop_code",
                "iters",
                "min_violation",
                "paper_stop_code",
                "paper_min_violation",
            ]
        )
        for label, solver, code, iters, viol in results:
            ref_code, ref_viol = reference[label][solver]
            writer.writerow(
                [label, solver, code, str(iters), _fmt(viol), ref_code, ref_viol]
            )
    return path
