"""Command-line harness for running instances, tables, and figures.

Exit codes: 0 on success, 2 on validation errors (among them a number beyond
``bodies.RANGE``) or an unreadable config file (each writes nothing), 3 when a
run stopped at its iteration cap.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .figures import render_figure
from .instances import load_config
from .runner import comparison_path, reproduce_table, run_instance, trace_lines
from .solvers import StopCode

__all__ = ["main"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_ITERATION_CAP = 3


@functools.cache  # built on the first call, not at import
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="feasib",
        description="Convex feasibility experiments: alternating projection "
        "solvers with conditional-gradient inexact projections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a single configured instance")
    run_p.add_argument("--config", required=True, help="instance JSON file")
    run_p.add_argument("--out-dir", default=".", help="output directory")
    run_p.add_argument(
        "--verbose", action="store_true", help="echo per-iteration trace rows"
    )

    table_p = sub.add_parser("table", help="reproduce a built-in result table")
    table_p.add_argument(
        "--which", required=True, choices=["1", "2"], help="table number"
    )
    table_p.add_argument("--out-dir", default=".", help="output directory")
    table_p.add_argument(
        "--verbose", action="store_true", help="echo the comparison rows"
    )

    plot_p = sub.add_parser("plot", help="render a trace CSV to SVG")
    plot_p.add_argument("--trace", required=True, help="trace CSV file")
    plot_p.add_argument("--config", required=True, help="instance JSON file")
    plot_p.add_argument("--out", required=True, help="output SVG file")
    return parser


def _cmd_run(args) -> int:
    config = load_config(args.config)
    report, trace_path = run_instance(
        config, args.out_dir, stem=Path(args.config).stem
    )
    if args.verbose:
        sys.stdout.writelines(trace_lines(report, config.dimension))
    print(
        f"{config.solver}: stop={report.stop_code.letter} "
        f"outer={report.outer_iters} min_violation={report.min_violation:.6e} "
        f"trace={trace_path}"
    )
    if report.stop_code is StopCode.ITERATION_CAP:
        return EXIT_ITERATION_CAP
    return EXIT_OK


def _cmd_table(args) -> int:
    which = int(args.which)
    rows = reproduce_table(which, args.out_dir)
    path = comparison_path(which, args.out_dir)
    if args.verbose:
        print(path.read_text(), end="")
    print(f"comparison written to {path}")
    if any(row.stop_code == StopCode.ITERATION_CAP.letter for row in rows):
        return EXIT_ITERATION_CAP
    return EXIT_OK


def _cmd_plot(args) -> int:
    config = load_config(args.config)
    out = render_figure(args.trace, config, args.out)
    print(f"figure written to {out}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "table":
            return _cmd_table(args)
        return _cmd_plot(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
