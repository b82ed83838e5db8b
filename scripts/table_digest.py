#!/usr/bin/env python3
"""Print a digest of the experiment tables' output files and one line per run.

Runs ``reproduce_table`` for table 1, table 2 or, by default, both, into a
temporary directory that is removed afterwards. The first line is
``sha256 <hex> <n> files``: the SHA-256 of all output files' bytes, read in
path order. The second is ``iterates <hex>``: the SHA-256 of the trace files
alone, in path order, with their violation columns ``cB_x`` and ``cA_y``
left out, so a change that rounds only the violations differently keeps it.
Each further line is ``label solver stop outer inner`` for one run, where
``inner`` is the sum of the trace's ``inner_iters`` column. Two checkouts
that print the same lines wrote the same bytes.

Usage:
    python scripts/table_digest.py [--which 1|2]
"""

import argparse
import hashlib
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from feasib.runner import reproduce_table

VIOLATION_COLUMNS = ("cB_x", "cA_y")


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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--which", type=int, choices=(1, 2))
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        rows = [row for which in ([args.which] if args.which else [1, 2])
                for row in reproduce_table(which, out)]
        files = sorted(out.iterdir())
        digest = hashlib.sha256()
        for path in files:
            digest.update(path.read_bytes())
        print(f"sha256 {digest.hexdigest()} {len(files)} files")
        traces = [path for path in files if path.name.endswith("_trace.csv")]
        print(f"iterates {iterates_digest(traces)}")
        for row in rows:
            trace = out / f"table_{row.instance}_{row.solver}_trace.csv"
            lines = trace.read_text().splitlines()[1:]
            inner = sum(int(line.rsplit(",", 1)[1]) for line in lines)
            print(row.instance, row.solver, row.stop_code, row.iters, inner)
    return 0


if __name__ == "__main__":
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe, as ``| head -1`` does. Point stdout at
        # devnull, so the flush at exit does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 0
    sys.exit(status)
