"""Execute configured instances and write trace, summary, and table files.

File conventions:

* trace CSV -- one row per outer iteration, header
  ``k,x1,...,xn,y1,...,yn,cB_x,cA_y,gamma,theta,lambda,inner_iters``.
  Floats use 17 significant digits (``%.17g``) so values round-trip
  exactly. Rows where no y-iterate exists yet write ``nan`` coordinates and
  an ``inf`` violation.
* summary JSON -- ``{stop_code, outer_iters, min_violation, wall_time}``
  with single-letter stop codes (C converged, L lack of progress,
  I iteration cap).
* comparison CSV -- one row per (instance, solver) with the measured stop
  code and final violation next to the transcribed reference values.

Each CSV row shape is stated once, as one ``%``-format string per line, and
no cell needs quoting. The trace file and ``feasib run --verbose`` share
:func:`trace_lines`. This module only runs configs and writes files:
:func:`feasib.instances.solve_config`, re-exported here, picks the solver.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path
from typing import NamedTuple

from .instances import InstanceConfig, solve_config, table_config, table_reference
from .solvers import SolveReport

__all__ = [
    "TableRow",
    "comparison_path",
    "reproduce_table",
    "run_instance",
    "solve_config",
    "trace_lines",
    "write_trace_csv",
]


def trace_lines(report: SolveReport, dim: int):
    """Yield the trace CSV data lines of ``report``, each ending in a newline."""
    line = "%d," + "%.17g," * (2 * dim + 2) + "%s%d\n"
    # ``tolist`` gives Python floats, which format faster than numpy scalars
    # and to the same bytes. Rows share one ``ForcingParams`` until the
    # progress rule scales it, so its three cells are formatted once per object.
    no_y = (math.nan,) * dim
    y_offset = len(report.x_trace) - len(report.y_trace)
    rows = zip(report.x_trace, report.violations, report.schedule_trace,
               report.inner_iters_per_k)
    last = cells = None
    for k, (x, viol, params, inner) in enumerate(rows):
        y = report.y_trace[k - y_offset].tolist() if k >= y_offset else no_y
        if params is not last:
            last, cells = params, "%.17g,%.17g,%.17g," % (params.gamma, params.theta, params.lam)
        yield line % (k, *x.tolist(), *y, *viol, cells, inner)


def write_trace_csv(path, report: SolveReport, dim: int) -> None:
    header = (
        ["k"]
        + [f"x{i}" for i in range(1, dim + 1)]
        + [f"y{i}" for i in range(1, dim + 1)]
        + ["cB_x", "cA_y", "gamma", "theta", "lambda", "inner_iters"]
    )
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(trace_lines(report, dim))


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


class TableRow(NamedTuple):
    """One row of a comparison CSV; the field names are its header."""

    instance: str
    solver: str
    stop_code: str
    iters: int
    min_violation: float
    paper_stop_code: str
    paper_min_violation: str


def comparison_path(which: int, out_dir) -> Path:
    return Path(out_dir) / f"table{which}_comparison.csv"


def reproduce_table(which: int, out_dir) -> list[TableRow]:
    """Run every (instance, solver) pair of ``table_reference(which)``, in
    this process.

    Writes one trace CSV per run plus the comparison CSV (see
    :func:`comparison_path`) with measured and reference results side by
    side, and returns the comparison rows. Nothing is written for an
    unknown table.
    """
    reference = table_reference(which)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for label, solvers in reference.items():
        for solver, (ref_code, ref_viol) in solvers.items():
            config = table_config(which, label, solver)
            report = solve_config(config)
            trace_path = out_dir / f"table_{label}_{solver}_trace.csv"
            write_trace_csv(trace_path, report, config.dimension)
            measured = (report.stop_code.letter, report.outer_iters, report.min_violation)
            rows.append(TableRow(label, solver, *measured, ref_code, ref_viol))

    with open(comparison_path(which, out_dir), "w", newline="") as fh:
        fh.write(",".join(TableRow._fields) + "\n")
        fh.writelines("%s,%s,%s,%d,%.17g,%s,%s\n" % row for row in rows)
    return rows
