"""Self-tests of the benchmark.

Run from the repository root with ``python3 -m pytest perfbench``. The
golden-record test runs every workload twice and takes a few minutes.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import feasib  # noqa: E402
from feasib import instances, runner  # noqa: E402
from run import WORKLOADS, tail  # noqa: E402
from tracer import LayerTracer  # noqa: E402
from worker import Tally  # noqa: E402
from workloads import Expect, Solve, check  # noqa: E402

INEXACT_C = (Solve("ACondG2@2.358", "C", 367, 71721, 0.0, 0.0, "a", (0.0, 0.0)),
             Expect(frozenset("C"), "ACondG2", False))
EXACT_STALL = (Solve("ExactAlt2@2.358", "L", 690, 0, 1.1e-7, 2e-7, "b", (4e-13, 0.0)),
               Expect(frozenset("L"), "ExactAlt2", False))
DISJOINT_L = (Solve("ExactAlt2@2.36", "L", 1091, 0, 9.9959e-4, 1e-3, "c", (0.0, 0.0)),
              Expect(frozenset("L"), "ExactAlt2", True, 9.9958e-4))
AVERAGED_L = (Solve("Averaged:n16", "L", 150, 7000, 0.05, 0.06, "d", (0.0, 0.0)),
              Expect(frozenset("L"), "Averaged", True))
AVERAGED_STALL = (Solve("Averaged:n64", "L", 25, 900, 0.0, 8.4e-9, "e", (0.0, 0.0)),
                  Expect(frozenset("CL"), "Averaged", False))
GOOD = [INEXACT_C, EXACT_STALL, DISJOINT_L, AVERAGED_L, AVERAGED_STALL]


@pytest.mark.parametrize("solve,expect", GOOD)
def test_correct_results_pass(solve, expect):
    assert check(solve, expect) == []


@pytest.mark.parametrize("case,corrupt", [
    (INEXACT_C, {"stop_code": "L"}),
    (INEXACT_C, {"min_violation": 1e-9}),
    (INEXACT_C, {"own_violations": (0.0, 1e-6)}),
    (INEXACT_C, {"own_violations": (math.nan, 0.0)}),
    (INEXACT_C, {"own_violations": (0.0, math.nan)}),
    (EXACT_STALL, {"min_violation": 0.0}),
    (EXACT_STALL, {"min_violation": 2e-6}),
    (DISJOINT_L, {"min_violation": 9.9958e-4 * 1.03}),
    (AVERAGED_L, {"min_violation": 0.0}),
    (AVERAGED_STALL, {"max_violation": 0.0}),
    (AVERAGED_STALL, {"max_violation": 2e-6}),
    (DISJOINT_L, {"error": "feasib run exited with 3"}),
])
def test_corrupted_result_is_a_failure(case, corrupt):
    solve, expect = case
    assert check(replace(solve, **corrupt), expect)


def test_tally_counts_corrupted_and_changed_results():
    tally = Tally([expect for _, expect in GOOD])
    tally.add([solve for solve, _ in GOOD])
    assert (tally.attempted, tally.failed) == (5, 0)
    changed = replace(INEXACT_C[0], inner_iters=71720)  # correct, not repeated
    wrong = replace(DISJOINT_L[0], stop_code="C")
    tally.add([changed, EXACT_STALL[0], wrong, AVERAGED_L[0], AVERAGED_STALL[0]])
    assert (tally.attempted, tally.failed) == (10, 2)
    assert "golden record changed" in tally.problems[0]


def test_tail_takes_the_percentile_with_ten_samples_beyond():
    assert tail([3.0, 1.0, 2.0]) == (100.0, 3.0)
    values = [float(i) for i in range(20)]
    assert tail(values) == (50.0, 9.0)


def test_tracer_matches_the_report_and_restores_the_package():
    config = instances.table1_config("1.30", "ACondG1")
    originals = (feasib.Ellipsoid.lo_minimize, runner.acondg1, feasib.condg.phi)
    tracer = LayerTracer()
    tracer.install()
    try:
        report = runner.solve_config(config)
    finally:
        tracer.uninstall()
    m = tracer.metrics()
    assert (feasib.Ellipsoid.lo_minimize, runner.acondg1, feasib.condg.phi) == originals
    assert m["solvers.outer_iters"] == report.outer_iters
    assert m["condg.project.inner_iters"] == report.inner_iter_total
    # The last iteration may stop before projecting onto A.
    assert report.outer_iters - 1 <= m["condg.project.calls"] <= report.outer_iters
    assert m["bodies.ellipsoid.project.calls"] == 0
    assert m["bodies.halfspace.project.calls"] == report.outer_iters
    assert m["instances.validate_config.calls"] == 1
    assert m["bodies.ellipsoid.build.calls"] == 2  # validate, then solve
    assert m["condg.project.self_s"] > 0.0 and m["solvers.self_s"] > 0.0


def _run(cwd: Path, workload: str, seed: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "0"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_golden_record_repeats_between_runs(workload):
    first, second = (_run(ROOT, workload, 3) for _ in range(2))
    for proc in (first, second):
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
    golden = [json.loads(p.stdout.splitlines()[-2])["golden_sha256"]
              for p in (first, second)]
    assert golden[0] == golden[1]


def test_directory_without_sources_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "nd_pairs",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180, env=env)
    assert proc.returncode != 0
    assert proc.stdout == ""
