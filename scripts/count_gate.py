#!/usr/bin/env python3
"""Fail when a table run's work moved but its committed record did not.

Reads four records of ``scripts/bench_tables.py``: two fresh ones, of a
base commit and of a head commit, written on one machine, and the
``BENCH_tables.json`` each commit holds. A run whose fresh records differ
on a gated field (``GATED``: the stop code, the outer and inner iteration
counts, the opcode and C-call counts and the trace digest) must have that
field changed between the two committed files too. Otherwise the script
prints the run, the field and both fresh values, and exits 1; it exits 0
when every moved field is recorded. It first prints, one line per run, the
moved fields that the committed files do record, as ``field base -> head``,
with the relative change of a count. Comparing two fresh records from one
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


def _move(name: str, old, new) -> str:
    """``name old -> new``, with the relative change when both are counts."""
    change = f" ({(new - old) / old:+.1%})" if isinstance(old, int) and old else ""
    return f"{name} {old} -> {new}{change}"


def moves(base: dict, head: dict, base_committed: dict, head_committed: dict):
    """The gated fields that moved from ``base`` to ``head``, as two lists of
    lines: one line per run naming the moves its committed entry records
    too, and one per run and field that the committed entry kept; runs are
    ``runs`` maps."""
    recorded, unrecorded = [], []
    for key, new in head.items():
        old = base.get(key)
        if old is None:  # a run the base commit did not have
            continue
        was, now = base_committed.get(key, {}), head_committed.get(key, {})
        run = f"table {key[0]} {key[1]} {key[2]}"
        moved = [name for name in GATED if old[name] != new[name]]
        kept = [name for name in moved if was.get(name) == now.get(name)]
        unrecorded += [f"{run}: {name} {old[name]} -> {new[name]}, committed entry unchanged"
                       for name in kept]
        shown = [_move(name, old[name], new[name]) for name in moved if name not in kept]
        if shown:
            recorded.append(f"{run}: recorded {', '.join(shown)}")
    return recorded, unrecorded


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) != 4:
        print(__doc__.split("Usage:")[1].strip(), file=sys.stderr)
        return 2
    recorded, lines = moves(*map(runs, paths))
    for line in recorded + lines:
        print(line)
    print(f"count gate: {len(lines)} moved field(s) not recorded in BENCH_tables.json"
          if lines else "count gate: every moved count is recorded")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
