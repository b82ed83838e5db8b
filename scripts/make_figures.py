#!/usr/bin/env python3
"""Render the iterate-path figures for the showcase instances.

Runs the inexact solver and the exact baseline on one feasible and one
infeasible instance of each table and writes an SVG per run.

Usage:
    python scripts/make_figures.py [--out-dir figures]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from feasib.figures import render_figure
from feasib.instances import table_config
from feasib.runner import run_instance

PANELS = [
    (1, "1.30", "ACondG1"),
    (1, "1.30", "ExactAlt1"),
    (1, "1.50", "ACondG1"),
    (1, "1.50", "ExactAlt1"),
    (2, "2.30", "ACondG2"),
    (2, "2.30", "ExactAlt2"),
    (2, "2.50", "ACondG2"),
    (2, "2.50", "ExactAlt2"),
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="figures")
    args = parser.parse_args()
    out = Path(args.out_dir)

    for which, label, solver in PANELS:
        config = table_config(which, label, solver)
        stem = f"{solver}_{label}"
        report, trace = run_instance(config, out, stem=stem)
        svg = render_figure(trace, config, out / f"{stem}.svg")
        print(
            f"{stem}: stop={report.stop_code.letter} outer={report.outer_iters} "
            f"min_violation={report.min_violation:.3e} -> {svg}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
