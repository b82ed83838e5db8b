#!/usr/bin/env python3
"""Fail when a table run's work moved but its committed record did not.

Reads four records of ``scripts/bench_tables.py``: two fresh ones, of a
base commit and of a head commit, written on one machine, and the
``BENCH_tables.json`` each commit holds. A run whose fresh records differ
on a gated field (``GATED``: the stop code, the outer and inner iteration
counts, the opcode and C-call counts and the trace digest) must have that
field changed between the two committed files too. Otherwise the script
prints the run, the field and both fresh values, and exits 1; it exits 0
when every moved field is recorded. Comparing two fresh records from one
machine, rather than either with a committed file, keeps the gate blind to
a numpy or BLAS build that rounds unlike the one the file was written with.

Usage:
    python scripts/count_gate.py BASE_FRESH HEAD_FRESH BASE_COMMITTED HEAD_COMMITTED
"""

import json
import sys
from pathlib import Path

GATED = ("stop", "outer_iters", "inner_iters", "opcodes", "c_calls", "trace_sha256")


def runs(path) -> dict:
    """A record's runs, keyed by ``(table, instance, solver)``."""
    record = json.loads(Path(path).read_text())
    return {(r["table"], r["instance"], r["solver"]): r for r in record["runs"]}


def unrecorded(base: dict, head: dict, base_committed: dict, head_committed: dict) -> list[str]:
    """A line for each run and gated field that moved from ``base`` to
    ``head`` while the committed entry kept it; runs are ``runs`` maps."""
    lines = []
    for key, new in head.items():
        old = base.get(key)
        if old is None:  # a run the base commit did not have
            continue
        was, now = base_committed.get(key, {}), head_committed.get(key, {})
        lines += [f"table {key[0]} {key[1]} {key[2]}: {name} {old[name]} -> {new[name]}, "
                  "committed entry unchanged"
                  for name in GATED if old[name] != new[name] and was.get(name) == now.get(name)]
    return lines


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) != 4:
        print(__doc__.split("Usage:")[1].strip(), file=sys.stderr)
        return 2
    lines = unrecorded(*map(runs, paths))
    for line in lines:
        print(line)
    print(f"count gate: {len(lines)} moved field(s) not recorded in BENCH_tables.json"
          if lines else "count gate: every moved count is recorded")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
