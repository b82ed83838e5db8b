#!/usr/bin/env python3
"""Reproduce the built-in experiment tables and print the comparisons.

Usage:
    python scripts/run_tables.py [--which 1|2|both] [--out-dir results]

Table 2 includes two near-tangent instances and takes about 1.3 s on one
core, shared mostly by the ACondG2 inner loops, the violation checks and the
trace CSV writing; table 1 takes about 0.1 s.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from feasib.runner import comparison_path, reproduce_table


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--which", choices=["1", "2", "both"], default="both")
    parser.add_argument("--out-dir", default="results")
    args = parser.parse_args()

    tables = [1, 2] if args.which == "both" else [int(args.which)]
    for which in tables:
        start = time.perf_counter()
        reproduce_table(which, args.out_dir)
        elapsed = time.perf_counter() - start
        path = comparison_path(which, args.out_dir)
        print(f"table {which} ({elapsed:.1f}s) -> {path}")
        print(path.read_text())
    return 0


if __name__ == "__main__":
    sys.exit(main())
