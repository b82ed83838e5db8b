"""One benchmark process: set up a workload, then run and check its passes.

``run.py`` starts this file with the thread-count variables already set and
``src`` on ``PYTHONPATH``. With ``--setup-only`` it builds the workload,
prints ``ready`` and exits, so the parent can time start-to-ready. Otherwise
it runs one untimed warm-up pass, then timed passes until ``--seconds`` is
used up, and prints one JSON line of raw measurements for ``run.py`` to turn
into metrics. Every timed pass runs under a :class:`speed.SpeedSampler`, so
its time is also known at the reference machine speed.

With ``--trace 1`` the set-up is traced too, and untraced and traced passes
alternate; the untraced ones are the base of ``trace.overhead_share``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import feasib
from speed import SpeedSampler
from tracer import LayerTracer
from workloads import WORKLOADS, OracleCache, check, make_workload

MIN_PASSES = 3  # timed passes per kind, even when --seconds is shorter
BUILD_METRICS = ("bodies.ellipsoid.build.calls", "bodies.ellipsoid.build.self_s")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tmp", type=Path, required=True)
    p.add_argument("--cache", type=Path, required=True)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


class Tally:
    """Counts attempted and failed solves, and checks that every pass
    repeats the warm-up pass's golden record exactly."""

    def __init__(self, expects):
        self.expects = expects
        self.attempted = 0
        self.failed = 0
        self.golden = None
        self.problems: list[str] = []

    def add(self, solves) -> None:
        golden = [s.golden() for s in solves]
        if self.golden is None:
            self.golden = golden
        for solve, expect, ref in zip(solves, self.expects, self.golden):
            problems = check(solve, expect)
            if solve.golden() != ref:
                problems.append(f"golden record changed: {solve.golden()} != {ref}")
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems.append(f"{solve.name}: {'; '.join(problems)}")


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd().resolve()
    if not Path(feasib.__file__).resolve().is_relative_to(root):
        print(f"error: feasib imported from {feasib.__file__}, outside {root}",
              file=sys.stderr)
        return 2
    args.tmp.mkdir(parents=True)
    tracer = LayerTracer() if args.trace and not args.setup_only else None
    if tracer:
        tracer.install()
    workload = make_workload(args.workload, args.seed, args.tmp)
    if tracer:
        tracer.uninstall()
        setup_layers = tracer.metrics()
    if args.setup_only:
        print("ready", flush=True)
        return 0

    tally = Tally(workload.expectations(OracleCache(args.cache)))
    tally.add(workload.solves(workload.run_pass()))  # warm-up, untimed

    plain = {"wall": [], "cpu": [], "ref": [], "ref_cpu": []}
    traced = {"wall": [], "cpu": [], "ref": [], "ref_cpu": [], "layers": []}
    deadline = time.perf_counter() + args.seconds
    while True:
        for kind in (plain, traced) if tracer else (plain,):
            gc.collect()
            if kind is traced:
                tracer.install()
            with SpeedSampler() as speed:
                w0, c0 = time.perf_counter(), time.process_time()
                outcomes = workload.run_pass()
                w1, c1 = time.perf_counter(), time.process_time()
            # The clocks and the scaling leave out the sampling kernel.
            own = speed.kernel_seconds
            kind["ref"].append(speed.reference_seconds())
            kind["ref_cpu"].append((c1 - c0 - own) * kind["ref"][-1] / (w1 - w0 - own))
            if kind is traced:
                tracer.uninstall()
                layers = tracer.metrics()
                # nd_pairs builds all its bodies in set-up, so the build
                # counters cover the set-up plus one pass.
                for name in BUILD_METRICS:
                    layers[name] += setup_layers[name]
                kind["layers"].append(layers)
            kind["wall"].append(w1 - w0)
            kind["cpu"].append(c1 - c0)
            tally.add(workload.solves(outcomes))
        # Stop when the next round would overrun the measured window.
        round_s = statistics.median(plain["wall"]) + (
            statistics.median(traced["wall"]) if tracer else 0.0)
        if len(plain["wall"]) >= MIN_PASSES and time.perf_counter() + round_s > deadline:
            break

    print(json.dumps({
        "pass_wall": plain["wall"],
        "pass_cpu": plain["cpu"],
        "pass_ref": plain["ref"],
        "pass_ref_cpu": plain["ref_cpu"],
        "traced_ref_cpu": traced["ref_cpu"],
        "layers": traced["layers"],
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems[:20],
        "golden": tally.golden,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
