"""feasib benchmark: one workload, measured from outside the package.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload fw_tangent --seed 1 --seconds 20 --trace 0

This process imports no numpy. It starts ``worker.py`` processes with every
BLAS/OpenMP thread-count variable and ``FEASIB_THREADS`` set to 1, so each
workload runs on one thread: an idle BLAS worker spins and bills CPU time
that depends on the scheduler.

* Set-up: ``SETUP_RUNS`` fresh processes each import feasib and build the
  workload; ``setup_s`` is the median time from process start to ready.
  Half of them run before the measuring worker and half after it.
* ``--trace 0``: one worker runs an untimed warm-up pass, then timed passes
  for ``--seconds``, and the end-to-end metrics are printed. Pass times are
  stated at a fixed machine speed (see ``speed.py``); the measured medians
  are printed on the first line.
* ``--trace 1``: the worker alternates untraced and traced passes, and the
  per-layer metrics (medians over traced passes) are printed.

Earlier lines of output record the thread settings, pass counts, flagged
passes and the golden record. The last line is the JSON result. The exit
code is 0 when a result was printed, 2 when the checkout holds no feasib
sources or a worker failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("fw_tangent", "exact_tangent", "nd_pairs")
SETUP_RUNS = 6
WORKER_TIMEOUT_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "FEASIB_THREADS")
# A single-threaded pass bills at most its wall time; more than this share
# above it means a thread the settings did not reach.
HIDDEN_THREAD_RATIO = 1.05


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def tail(values: list[float]) -> tuple[float, float]:
    """``(percentile, value)``: the highest percentile with at least ten
    samples beyond it, or the maximum when there are too few samples."""
    ordered = sorted(values)
    i = len(ordered) - 11
    if i < 0:
        return 100.0, ordered[-1]
    return 100.0 * (i + 1) / len(ordered), ordered[i]


def _worker_cmd(args, tmp: Path, root: Path) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--tmp", str(tmp), "--cache", str(root / ".perfbench_cache" / "oracle_limits.json")]


def _time_setup(cmd: list[str], env: dict) -> float:
    """Seconds from starting a set-up-only worker to its ``ready`` line."""
    start = time.perf_counter()
    with subprocess.Popen(cmd + ["--setup-only"], stdout=subprocess.PIPE,
                          env=env, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        proc.stdout.read()
        if proc.wait(timeout=WORKER_TIMEOUT_S) != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up worker failed with exit {proc.returncode}")
    return ready


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _end_to_end(raw: dict, setup: list[float]) -> tuple[dict, dict]:
    wall = raw["pass_ref"]
    pct, tail_s = tail(wall)
    metrics = {
        "setup_s": _metric(statistics.median(setup), "s"),
        "pass_s": _metric(statistics.median(wall), "s"),
        "pass_cpu_s": _metric(statistics.median(raw["pass_ref_cpu"]), "s"),
        "pass_s_tail": _metric(tail_s, "s"),
        "peak_rss_mib": _metric(raw["peak_rss_kib"] / 1024.0, "MiB"),
        "solves_ok_share": _metric(
            (raw["attempted"] - raw["failed"]) / raw["attempted"], "share"),
    }
    info = {"passes": len(wall), "pass_s_tail_percentile": pct,
            "setup_samples": setup,
            "measured_pass_s": statistics.median(raw["pass_wall"]),
            "measured_pass_cpu_s": statistics.median(raw["pass_cpu"])}
    return metrics, info


def _per_layer(raw: dict) -> dict:
    from_layers = {name: statistics.median(p[name] for p in raw["layers"])
                   for name in raw["layers"][0]}
    plain = statistics.median(raw["pass_ref_cpu"])
    from_layers["trace.overhead_share"] = (
        statistics.median(raw["traced_ref_cpu"]) - plain) / plain
    units = json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
    return {m["name"]: _metric(from_layers[m["name"]], m["unit"]) for m in units}


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd().resolve()
    if not (root / "src" / "feasib" / "__init__.py").is_file():
        print(f"error: no feasib sources under {root / 'src'}; run from the "
              "root of a source checkout", file=sys.stderr)
        return 2
    env = {**os.environ, **{v: "1" for v in THREAD_VARS},
           "PYTHONPATH": str(root / "src")}
    scratch = root / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        # Half the set-ups run before the measuring worker and half after,
        # so their median spans the run rather than its first seconds.
        setup = [_time_setup(_worker_cmd(args, tmp / f"setup{i}", root), env)
                 for i in range(SETUP_RUNS // 2)]
        proc = subprocess.run(_worker_cmd(args, tmp / "main", root), env=env,
                              stdout=subprocess.PIPE, text=True,
                              timeout=WORKER_TIMEOUT_S)
        setup += [_time_setup(_worker_cmd(args, tmp / f"setup{i}", root), env)
                  for i in range(SETUP_RUNS // 2, SETUP_RUNS)]
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if proc.returncode != 0:
        print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
        return 2
    raw = json.loads(proc.stdout.strip().splitlines()[-1])

    ratios = [c / w for c, w in zip(raw["pass_cpu"], raw["pass_wall"])]
    hidden = [i for i, r in enumerate(ratios) if r > HIDDEN_THREAD_RATIO]
    for problem in raw["problems"]:
        print(f"failed solve: {problem}", file=sys.stderr)
    for i in hidden:
        print(f"warning: pass {i} billed {ratios[i]:.2f}x its wall time; "
              "a thread escaped the settings", file=sys.stderr)
    if args.trace:
        metrics, info = _per_layer(raw), {"traced_passes": len(raw["traced_ref_cpu"])}
    else:
        metrics, info = _end_to_end(raw, setup)
    golden = json.dumps(raw["golden"], separators=(",", ":"))
    print(json.dumps({"settings": {v: env[v] for v in THREAD_VARS},
                      "cpu_per_wall": ratios, "hidden_thread_passes": hidden,
                      **info}))
    print(json.dumps({"golden_sha256": hashlib.sha256(golden.encode()).hexdigest(),
                      "golden": raw["golden"]}))
    print(json.dumps({"correct": raw["failed"] == 0, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
