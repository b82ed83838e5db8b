import csv
import hashlib
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import feasib
from feasib import MEMBER_TOL, Ball, Box, Ellipsoid, InputError, StopCode, dist_two_bodies
from feasib import cli
from feasib.cli import main
from feasib.figures import _boundary_points, render_figure
from feasib.instances import (
    build_bodies,
    load_config,
    parse_config,
    save_config,
    serialize_config,
    table1_config,
    table2_config,
    table_config,
    table_reference,
)
from feasib.condg import CondGResult, CondGStop, ForcingParams
from feasib.runner import (
    TableRow,
    comparison_path,
    reproduce_table,
    run_instance,
    write_trace_csv,
)
from feasib.solvers import SolveReport

EXPECTED_HEADER = "k,x1,x2,y1,y2,cB_x,cA_y,gamma,theta,lambda,inner_iters"


@pytest.fixture(scope="module")
def table1_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("table1")
    reproduce_table(1, out)
    return out


@pytest.fixture(scope="module")
def table2_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("table2")
    reproduce_table(2, out)
    return out


def load_script(name):
    """``scripts/<name>.py`` loaded in this process, with ``sys.path`` left
    as it was before the script put ``src`` on it."""
    path = list(sys.path)
    script = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, script)
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = path
    return module


@pytest.fixture(scope="module")
def bench_tables():
    return load_script("bench_tables")


def comparison_rows(out_dir, which):
    path = out_dir / f"table{which}_comparison.csv"
    return [line.split(",") for line in path.read_text().strip().splitlines()[1:]]


def csv_writer_reference(report, header, dim):
    """The trace file's bytes as csv.writer writes them, with
    format(x, ".17g") per float cell; row 0 has no y-iterate."""
    def cell(x):
        return format(float(x), ".17g")

    ref = io.StringIO()
    writer = csv.writer(ref, lineterminator="\n")
    writer.writerow(header.split(","))
    ys = [["nan"] * dim] + [[cell(c) for c in y] for y in report.y_trace]
    for k, x in enumerate(report.x_trace):
        p = report.schedule_trace[k]
        writer.writerow(
            [str(k)] + [cell(c) for c in x] + ys[k]
            + [cell(v) for v in (*report.violations[k], p.gamma, p.theta, p.lam)]
            + [str(report.inner_iters_per_k[k])]
        )
    return ref.getvalue().encode()


class TestRunInstance:
    def test_trace_and_summary_files(self, tmp_path):
        cfg = table1_config("1.30", "ACondG1")
        report, trace_path = run_instance(cfg, tmp_path, stem="demo")
        assert report.stop_code is StopCode.CONVERGED_FEASIBLE
        lines = trace_path.read_text().splitlines()
        assert lines[0] == EXPECTED_HEADER
        assert len(lines) == report.outer_iters + 2

        summary = json.loads((tmp_path / "demo_summary.json").read_text())
        assert summary["stop_code"] == "C"
        assert summary["outer_iters"] == report.outer_iters
        assert summary["min_violation"] == 0.0
        assert summary["wall_time"] >= 0.0

    def test_first_row_without_y_uses_nan_and_inf(self, tmp_path):
        cfg = table1_config("1.50", "ACondG1")
        _, trace_path = run_instance(cfg, tmp_path, stem="gap")
        with open(trace_path, newline="") as fh:
            row0 = next(csv.DictReader(fh))
        assert row0["y1"] == "nan" and row0["y2"] == "nan"
        assert row0["cA_y"] == "inf"
        assert row0["gamma"] == format(0.1 - 1e-8, ".17g")

    def test_trace_cells_of_shared_and_equal_params_match_the_reference(self, tmp_path):
        # Rows share one ForcingParams object until the progress rule scales
        # it, and trace_lines formats each object's cells once. Here the
        # object changes mid-run and back, and two distinct objects are equal.
        p, q, p_equal = (ForcingParams(0.1, 3.0, -0.0), ForcingParams(5e-324, 1e308, 0.1),
                         ForcingParams(0.1, 3.0, -0.0))
        xs = tuple(np.array([0.1 * k, -0.0]) for k in range(7))
        w = np.array([0.5, 0.5])
        report = SolveReport(
            x_trace=xs,
            y_trace=xs[1:],
            violations=((3.0, math.inf), *((0.1 * k, 5e-324) for k in range(1, 7))),
            stop_code=StopCode.LACK_OF_PROGRESS,
            schedule_trace=(p, p, q, q, p_equal, p_equal, p),
            inner_results=((), *((CondGResult(w, k, 0.0, CondGStop.TOLERANCE_MET),)
                                 for k in range(1, 7))),
        )
        path = tmp_path / "shared.csv"
        write_trace_csv(path, report, 2)
        assert path.read_bytes() == csv_writer_reference(report, EXPECTED_HEADER, 2)

    def test_trace_floats_round_trip(self, tmp_path):
        cfg = table1_config("1.60", "ExactAlt1")
        report, trace_path = run_instance(cfg, tmp_path, stem="rt")
        with open(trace_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        k = len(rows) - 1
        assert float(rows[k]["x1"]) == report.x_trace[k][0]
        assert float(rows[k]["cB_x"]) == report.violations[k][0]

    @pytest.mark.parametrize("dim", [2, 3])
    def test_trace_bytes_match_a_csv_writer_reference(self, tmp_path, dim):
        # Row 0 has no y-iterate; the values probe signed zero, subnormal,
        # huge and inexact floats. A 2-D row takes the first two entries.
        x1 = np.array([0.1, 3.0, 5e-324][:dim])
        report = SolveReport(
            x_trace=(np.array([-0.0, 5e-324, 1e308][:dim]), x1),
            y_trace=(np.array([1e308, -0.0, 0.1][:dim]),),
            violations=((3.0, math.inf), (5e-324, 0.1)),
            stop_code=StopCode.CONVERGED_FEASIBLE,
            schedule_trace=(
                ForcingParams(0.1, 3.0, -0.0),
                ForcingParams(5e-324, 1e308, 0.1),
            ),
            inner_results=((), (CondGResult(x1, 17, 0.0, CondGStop.TOLERANCE_MET),)),
        )
        path = tmp_path / "probe.csv"
        write_trace_csv(path, report, dim)
        header = {
            2: EXPECTED_HEADER,
            3: "k,x1,x2,x3,y1,y2,y3,cB_x,cA_y,gamma,theta,lambda,inner_iters",
        }[dim]

        assert path.read_bytes() == csv_writer_reference(report, header, dim)

        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        for k, row in enumerate(rows):
            p = report.schedule_trace[k]
            y = report.y_trace[k - 1] if k else (math.nan,) * dim
            want = [*report.x_trace[k], *y, *report.violations[k],
                    p.gamma, p.theta, p.lam]
            for text, value in zip(row[1:-1], want, strict=True):
                got = float(text)
                if math.isnan(value):
                    assert math.isnan(got)
                else:
                    assert got == value
                    assert math.copysign(1.0, got) == math.copysign(1.0, value)

    def test_rerun_traces_are_byte_identical(self, tmp_path):
        cfg = table2_config("2.40", "ACondG2")
        _, p1 = run_instance(cfg, tmp_path / "a", stem="x")
        _, p2 = run_instance(cfg, tmp_path / "b", stem="x")
        assert p1.read_bytes() == p2.read_bytes()

    def test_three_dimensional_instance_runs(self, tmp_path):
        obj = {
            "schema": 1,
            "dimension": 3,
            "set_a": {"kind": "ball", "center": [0.0, 0.0, 0.0], "radius": 1.0},
            "set_b": {
                "kind": "box",
                "lower": [0.5, -2.0, -2.0],
                "upper": [3.0, 2.0, 2.0],
            },
            "x0": [0.0, 0.0, 0.0],
            "y0": [1.0, 0.0, 0.0],
            "solver": "ACondG2",
        }
        cfg_path = tmp_path / "nd.json"
        cfg_path.write_text(json.dumps(obj))
        cfg = load_config(cfg_path)
        report, trace = run_instance(cfg, tmp_path, stem="nd")
        assert report.stop_code is StopCode.CONVERGED_FEASIBLE
        header = trace.read_text().splitlines()[0]
        assert header == "k,x1,x2,x3,y1,y2,y3,cB_x,cA_y,gamma,theta,lambda,inner_iters"

    def test_averaged_solver_config_runs(self, tmp_path):
        obj = {
            "schema": 1,
            "dimension": 2,
            "set_a": {"kind": "ball", "center": [-2.0, 0.0], "radius": 1.0},
            "set_b": {"kind": "ball", "center": [2.0, 0.0], "radius": 1.0},
            "x0": [-2.0, 0.0],
            "y0": [2.0, 0.0],
            "solver": "Averaged",
        }
        cfg_path = tmp_path / "avg.json"
        cfg_path.write_text(json.dumps(obj))
        cfg = load_config(cfg_path)
        report, trace = run_instance(cfg, tmp_path, stem="avg")
        assert report.stop_code is StopCode.LACK_OF_PROGRESS
        with open(trace, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == report.outer_iters + 1
        # x columns hold the averaged iterate, which converges to the
        # midpoint between the disks.
        assert float(rows[-1]["x1"]) == pytest.approx(0.0, abs=1e-3)
        assert float(rows[-1]["y1"]) == pytest.approx(1.0, abs=1e-3)

    def test_invalid_config_raises_and_writes_nothing(self, tmp_path):
        cfg = replace(table1_config("1.30", "ACondG1"), x0=(9.0, 9.0))
        out_dir = tmp_path / "out"
        with pytest.raises(InputError, match="x0"):
            run_instance(cfg, out_dir)
        assert not out_dir.exists()


class TestReproduceTable:
    def test_table_record_script(
        self, table1_dir, table2_dir, tmp_path, table_reports, bench_tables, monkeypatch, capsys
    ):
        # Nothing here reads the work counts, so no solve is traced; the next
        # test checks work_counts itself.
        monkeypatch.setattr(bench_tables, "work_counts", lambda config: (0, 0))
        out = tmp_path / "BENCH_tables.json"
        assert bench_tables.main(["--repeats", "1", "--out", str(out)]) == 0
        first, iterates = capsys.readouterr().out.splitlines()
        files = sorted([*table1_dir.iterdir(), *table2_dir.iterdir()], key=lambda p: p.name)
        digest = hashlib.sha256(b"".join(path.read_bytes() for path in files))
        assert first == f"sha256 {digest.hexdigest()} {len(files)} files"
        # The trace files without their violation columns, cB_x and cA_y.
        stripped = hashlib.sha256()
        for path in files:
            if path.name.endswith("_trace.csv"):
                for row in csv.reader(path.read_text().splitlines()):
                    stripped.update((",".join(row[:5] + row[7:]) + "\n").encode())
        assert iterates == f"iterates {stripped.hexdigest()}"
        record = json.loads(out.read_text())
        assert (record["sha256"], record["iterates"]) == (digest.hexdigest(), stripped.hexdigest())
        runs = [
            (r["instance"], r["solver"], r["stop"], r["outer_iters"], r["inner_iters"])
            for r in record["runs"]
        ]
        dirs = {1: table1_dir, 2: table2_dir}
        expected = []
        for which, out_dir in dirs.items():
            for label, solver, stop, outer, *_ in comparison_rows(out_dir, which):
                inner = table_reports[which, label, solver].inner_iter_total
                expected.append((label, solver, stop, int(outer), inner))
        assert runs == expected
        for r in record["runs"]:
            results = table_reports[r["table"], r["instance"], r["solver"]].inner_results
            stops = Counter(res.stop_reason.value for row in results for res in row)
            assert r["inner_stops"] == {stop.value: stops[stop.value] for stop in CondGStop}
            trace = dirs[r["table"]] / f"table_{r['instance']}_{r['solver']}_trace.csv"
            assert r["trace_sha256"] == hashlib.sha256(trace.read_bytes()).hexdigest()

    def test_work_counts_repeat_for_one_run(self, bench_tables):
        config = table_config(1, "1.60", "ExactAlt1")
        config.bodies  # built before counting, as the record builds them
        counts = bench_tables.work_counts(config)
        assert bench_tables.work_counts(config) == counts
        assert min(counts) > 0

    def test_count_gate_fails_on_moved_work_left_unrecorded(self, tmp_path, capsys):
        # A run whose fresh counts moved from base to head passes only when
        # the committed record changed that field too; a new CPU time is no
        # record of moved work.
        gate = load_script("count_gate")

        def record(name, opcodes, cpu_s=1e-4):
            run = {"table": 1, "instance": "1.30", "solver": "ACondG1", "stop": "C",
                   "outer_iters": 5, "inner_iters": 13, "opcodes": opcodes,
                   "c_calls": 169, "trace_sha256": "0f1b", "cpu_s": cpu_s}
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({"runs": [run]}))
            return str(path)

        base, head, old = record("base", 7221), record("head", 7229), record("old", 7221)
        new, retimed = record("new", 7229), record("retimed", 7221, cpu_s=2e-4)
        assert gate.main([base, base, old, old]) == 0
        assert gate.main([base, head, old, new]) == 0
        assert gate.main([base, head, old, retimed]) == 1
        assert capsys.readouterr().out.splitlines()[-2:] == [
            "table 1 1.30 ACondG1: opcodes 7221 -> 7229, committed entry unchanged",
            "count gate: 1 moved field(s) not recorded in BENCH_tables.json",
        ]

    def test_comparison_layout_and_codes(self, table1_dir):
        text = (table1_dir / "table1_comparison.csv").read_text()
        lines = text.strip().splitlines()
        assert lines[0] == (
            "instance,solver,stop_code,iters,min_violation,"
            "paper_stop_code,paper_min_violation"
        )
        assert len(lines) == 17
        rows = [line.split(",") for line in lines[1:]]
        for row in rows:
            assert row[2] == row[5], f"stop code mismatch on {row}"
        feas = {r[0]: r for r in rows if r[1] == "ACondG1"}
        for label in ("1.30", "1.35", "1.40", "1.42"):
            assert feas[label][2] == "C"
            assert float(feas[label][4]) == 0.0
        for label in ("1.43", "1.45", "1.50", "1.60"):
            expected = float(label) - math.sqrt(2.02)
            assert abs(float(feas[label][4]) - expected) <= 1e-4

    def test_unknown_table_raises_and_writes_nothing(self, tmp_path):
        out_dir = tmp_path / "out"
        with pytest.raises(InputError, match="no table 3") as err:
            reproduce_table(3, out_dir)
        assert err.value.path == "which"
        assert not out_dir.exists()

    def test_traces_written_per_run(self, table1_dir):
        names = {p.name for p in table1_dir.iterdir()}
        assert "table_1.30_ACondG1_trace.csv" in names
        assert "table_1.60_ExactAlt1_trace.csv" in names

    def test_rerun_is_byte_identical_and_returns_the_comparison_csv(self, table1_dir, tmp_path):
        rows = reproduce_table(1, tmp_path)
        again = comparison_path(1, tmp_path)
        assert (
            again.read_bytes()
            == (table1_dir / "table1_comparison.csv").read_bytes()
        )
        for name in ("table_1.30_ACondG1_trace.csv", "table_1.45_ExactAlt1_trace.csv"):
            assert (
                (tmp_path / name).read_bytes() == (table1_dir / name).read_bytes()
            )
        written = comparison_rows(table1_dir, 1)
        assert len(rows) == len(written) == 16
        for row, fields in zip(rows, written):
            assert [row.instance, row.solver, row.stop_code] == fields[:3]
            assert row.iters == int(fields[3])
            assert row.min_violation == float(fields[4])
            assert [row.paper_stop_code, row.paper_min_violation] == fields[5:]

    def test_second_table_feasible_rows(self, table2_dir):
        rows = comparison_rows(table2_dir, 2)
        assert len(rows) == 16
        for row in rows:
            assert row[2] == row[5], f"stop code mismatch on {row}"
        inexact = {r[0]: r for r in rows if r[1] == "ACondG2"}
        for label in ("2.30", "2.35", "2.357", "2.358"):
            assert inexact[label][2] == "C"
            assert float(inexact[label][4]) == 0.0


    def test_disjoint_rows_end_at_the_exact_baseline(self, table1_dir, table2_dir):
        # Near-tangent iteration counts move with the last bit of rounding,
        # so the empty-intersection claim is gated on min_violation: on
        # every disjoint instance (the inexact solver's reference code is L)
        # ACondG ends within 2% of ExactAlt on the same instance.
        for which, out_dir in ((1, table1_dir), (2, table2_dir)):
            inexact, exact = f"ACondG{which}", f"ExactAlt{which}"
            got = {(r[0], r[1]): float(r[4]) for r in comparison_rows(out_dir, which)}
            disjoint = [
                label
                for label, codes in table_reference(which).items()
                if codes[inexact][0] == "L"
            ]
            assert len(disjoint) == 4
            for label in disjoint:
                base = got[label, exact]
                assert abs(got[label, inexact] - base) <= 0.02 * base, label


class TestFigures:
    def test_figure_contains_sets_and_paths(self, table1_dir, tmp_path):
        cfg = table1_config("1.30", "ACondG1")
        out = render_figure(
            table1_dir / "table_1.30_ACondG1_trace.csv", cfg, tmp_path / "fig.svg"
        )
        text = out.read_text()
        assert text.startswith("<?xml")
        assert text.count("<polyline") >= 4
        assert "viewBox=" in text and "legend" not in text
        assert "<text" in text

    def test_final_marker_matches_nearest_boundary_point(self, table1_dir, tmp_path):
        cfg = table1_config("1.50", "ACondG1")
        trace = table1_dir / "table_1.50_ACondG1_trace.csv"
        with open(trace, newline="") as fh:
            rows = list(csv.DictReader(fh))
        final_x = np.array([float(rows[-1]["x1"]), float(rows[-1]["x2"])])
        a, b = build_bodies(cfg)
        _, xa, _ = dist_two_bodies(a, b)
        assert np.max(np.abs(final_x - xa)) <= 1e-3

        out = render_figure(trace, cfg, tmp_path / "fig.svg")
        marker = re.search(
            r'<circle cx="([-\d.e]+)" cy="([-\d.e]+)" r="[\d.e-]+" fill="none"',
            out.read_text(),
        )
        assert marker is not None
        # SVG coordinates carry 6 significant digits.
        assert float(marker.group(1)) == pytest.approx(final_x[0], abs=1e-4)
        assert float(marker.group(2)) == pytest.approx(-final_x[1], abs=1e-4)

    def test_empty_trace_draws_sets_only(self, tmp_path):
        cfg = table1_config("1.30", "ACondG1")
        empty = tmp_path / "empty.csv"
        empty.write_text(EXPECTED_HEADER + "\n")
        out = render_figure(empty, cfg, tmp_path / "empty.svg")
        text = out.read_text()
        assert text.count("<polyline") == 2

    @pytest.mark.parametrize(
        "body, center",
        [
            (Ellipsoid.from_axes([0.5, -1.0], 0.3, (2.0, 0.2)), (0.5, -1.0)),
            (Ball(center=[1.0, 2.0], radius=0.7), (1.0, 2.0)),
            (Box(lower=[-1.0, 0.0], upper=[2.0, 0.5]), (0.5, 0.25)),
        ],
        ids=["ellipsoid", "ball", "box"],
    )
    def test_compact_outline_lies_on_the_boundary(self, body, center):
        # Each drawn point is a member, and a point a share 1e-9 further
        # out from the centre is not; the outline ends where it starts, to
        # within the rounding of the sine and cosine of its two end angles.
        outline = _boundary_points(body, None)
        assert math.dist(outline[0], outline[-1]) <= 1e-15
        c = np.array(center)
        for p in np.array(outline):
            assert body.violation(p) <= MEMBER_TOL
            assert body.violation(c + (1.0 + 1e-9) * (p - c)) > MEMBER_TOL

    def test_two_halfspaces_with_an_empty_trace_draw_their_lines(self, tmp_path):
        # No trace point and no compact outline: the view falls back to the
        # unit square around which both lines are clipped.
        cfg = parse_config({
            "schema": 1, "dimension": 2, "solver": "ExactAlt1", "x0": [0.0, 0.0],
            "set_a": {"kind": "halfspace", "normal": [1.0, 0.0], "offset": 0.5},
            "set_b": {"kind": "halfspace", "normal": [0.0, -1.0], "offset": -0.5},
        })
        empty = tmp_path / "empty.csv"
        empty.write_text(EXPECTED_HEADER + "\n")
        text = render_figure(empty, cfg, tmp_path / "lines.svg").read_text()
        polylines = re.findall(r'<polyline points="([^"]*)"', text)
        assert [len(p.split()) for p in polylines] == [2, 2]
        assert 'viewBox="-0.08 -1.08 1.16 1.16"' in text

    def test_non_trace_csv_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        cfg = table1_config("1.30", "ACondG1")
        with pytest.raises(ValueError):
            render_figure(bad, cfg, tmp_path / "no.svg")

    @pytest.mark.parametrize(
        "text, message",
        [
            # A 1-D trace plotted with a 2-D config.
            ("k,x1,y1,cB_x,cA_y,gamma,theta,lambda,inner_iters\n0,0,0,0,0,0,0,0,0\n",
             "only 2-D traces"),
            (EXPECTED_HEADER + "\n0,0,0,0,0,0,0,0,0,0,0\n1,0,0\n", "line 3"),
            # A cell longer than the csv module's field size limit.
            (EXPECTED_HEADER + "\n0," + "1" * 200_000 + ",0,0,0,0,0,0,0,0,0\n",
             "bad.csv, line 2: field larger than field limit"),
        ],
        ids=["missing-columns", "missing-cells", "oversized-cell"],
    )
    def test_bad_trace_exits_2_with_an_error(self, tmp_path, capsys, text, message):
        cfg_path = tmp_path / "cfg.json"
        save_config(table1_config("1.30", "ACondG1"), cfg_path)
        trace = tmp_path / "bad.csv"
        trace.write_text(text)
        out = tmp_path / "no.svg"
        argv = ["plot", "--trace", str(trace), "--config", str(cfg_path), "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()

    @staticmethod
    def run_ball_box(tmp_path, dim):
        """``feasib run`` ExactAlt1 on a unit ball against a disjoint box in
        ``dim`` dimensions; return the ``feasib plot`` argv for its trace."""
        zeros = [0.0] * dim
        cfg_path = tmp_path / "ball_box.json"
        cfg_path.write_text(json.dumps({
            "schema": 1, "dimension": dim, "solver": "ExactAlt1", "x0": zeros,
            "set_a": {"kind": "ball", "center": zeros, "radius": 1.0},
            "set_b": {"kind": "box", "lower": [2.0] + [-1.0] * (dim - 1),
                      "upper": [3.0] + [1.0] * (dim - 1)},
        }))
        assert main(["run", "--config", str(cfg_path), "--out-dir", str(tmp_path)]) == 0
        trace = tmp_path / "ball_box_trace.csv"
        return ["plot", "--trace", str(trace), "--config", str(cfg_path),
                "--out", str(tmp_path / "ball_box.svg")]

    def test_ball_and_box_boundaries_are_drawn(self, tmp_path):
        assert main(self.run_ball_box(tmp_path, 2)) == 0
        text = (tmp_path / "ball_box.svg").read_text()
        # The two set boundaries, then the two iterate paths.
        polylines = re.findall(r'<polyline points="([^"]*)"', text)
        assert len(polylines) == 4
        circle = [tuple(map(float, p.split(","))) for p in polylines[0].split()]
        assert len(circle) == 513
        assert all(abs(math.hypot(x, y) - 1.0) <= 1e-5 for x, y in circle)
        assert polylines[1] == "2,1 3,1 3,-1 2,-1 2,1"  # the y axis is flipped

    def test_three_dimensional_instance_is_not_plotted(self, tmp_path, capsys):
        argv = self.run_ball_box(tmp_path, 3)
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: only 2-D instances can be rendered\n"
        assert not (tmp_path / "ball_box.svg").exists()

    def test_make_figures_script(self, tmp_path):
        script = Path(__file__).resolve().parents[1] / "scripts" / "make_figures.py"
        proc = subprocess.run(
            [sys.executable, str(script), "--out-dir", str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        svgs = sorted(tmp_path.glob("*.svg"))
        assert len(svgs) == 8
        for svg in svgs:
            root = ET.parse(svg).getroot()
            assert root.tag == "{http://www.w3.org/2000/svg}svg", svg.name


class TestCLI:
    def test_run_command(self, tmp_path, capsys):
        cfg_path = tmp_path / "feasible.json"
        save_config(table1_config("1.30", "ACondG1"), cfg_path)
        code = main(["run", "--config", str(cfg_path), "--out-dir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "feasible_trace.csv").exists()
        assert (tmp_path / "feasible_summary.json").exists()
        out = capsys.readouterr().out
        assert "stop=C" in out

    def test_run_verbose_echoes_rows(self, tmp_path, capsys):
        # Row 0 of ACondG1@1.50 has nan coordinates and an inf violation.
        cfg_path = tmp_path / "v.json"
        save_config(table1_config("1.50", "ACondG1"), cfg_path)
        assert main(["run", "--config", str(cfg_path), "--out-dir", str(tmp_path), "--verbose"]) == 0
        echoed = capsys.readouterr().out.splitlines()[:-1]
        written = (tmp_path / "v_trace.csv").read_text().splitlines()[1:]
        assert echoed == written
        assert echoed[0].startswith("0,0,0,nan,nan,")
        assert ",inf," in echoed[0]

    def test_run_validation_error_writes_nothing(self, tmp_path, capsys):
        obj = serialize_config(table1_config("1.30", "ACondG1"))
        obj["x0"] = [9.0, 9.0]
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(obj))
        out_dir = tmp_path / "out"
        code = main(["run", "--config", str(cfg_path), "--out-dir", str(out_dir)])
        assert code == 2
        assert "x0" in capsys.readouterr().err
        assert not out_dir.exists() or not list(out_dir.iterdir())

    def test_overflowing_run_exits_2_and_writes_nothing(self, tmp_path, capsys):
        # Input whose first exact projection would overflow to -inf is
        # refused where it enters, beyond the range.
        obj = serialize_config(table1_config("1.30", "ExactAlt1"))
        obj["set_a"] = {"kind": "ball", "center": [1e308, 1e308], "radius": 1.0}
        obj["set_b"] = {"kind": "halfspace", "normal": [1.0, 1.0], "offset": 0.0}
        obj["x0"] = [1e308, 1e308]
        cfg_path = tmp_path / "overflow.json"
        cfg_path.write_text(json.dumps(obj))
        out_dir = tmp_path / "out"
        code = main(["run", "--config", str(cfg_path), "--out-dir", str(out_dir)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: x0: vector entries must lie in [-2^128, 2^128]\n"
        )
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "data",
        [b"[" * 200_000 + b"]" * 200_000, b'{"schema": 1, "solver": "\xff"}', b"{"],
        ids=["nested-too-deeply", "not-utf-8", "not-json"],
    )
    def test_an_undecodable_config_exits_2_and_writes_nothing(self, tmp_path, capsys, data):
        cfg_path = tmp_path / "undecodable.json"
        cfg_path.write_bytes(data)
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out-dir", str(out_dir)]) == 2
        assert capsys.readouterr().err.startswith("error: $: invalid JSON: ")
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "edit, key",
        [
            (lambda text: text.replace('"stopping"', '"stoping"'), "stoping"),
            (lambda text: text.replace('"y0"', '"yo"'), "yo"),
            (lambda text: text.replace('"solver": "ExactAlt2"',
                                       '"solver": "ACondG2", "solver": "ExactAlt2"'),
             "solver"),
        ],
        ids=["misspelled-stopping", "misspelled-y0", "repeated-solver"],
    )
    def test_a_key_no_run_reads_exits_2_and_writes_nothing(self, tmp_path, capsys, edit, key):
        # Each file would otherwise run: with the default stopping, without
        # its y0, or by the solver named last.
        cfg_path = tmp_path / "keys.json"
        save_config(table2_config("2.358", "ExactAlt2"), cfg_path)
        cfg_path.write_text(edit(cfg_path.read_text()))
        out_dir = tmp_path / "out"
        code = main(["run", "--config", str(cfg_path), "--out-dir", str(out_dir)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {key}: ")
        assert not out_dir.exists()

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2

    def test_directory_as_config_exits_2(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_number_beyond_float_range_exits_2(self, tmp_path, capsys):
        obj = serialize_config(table1_config("1.30", "ACondG1"))
        obj["set_b"]["offset"] = 10**400
        cfg_path = tmp_path / "huge.json"
        cfg_path.write_text(json.dumps(obj))
        assert main(["run", "--config", str(cfg_path), "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: set_b.offset: must be finite\n"

    def test_iteration_cap_exit_code(self, tmp_path):
        obj = serialize_config(table1_config("1.50", "ACondG1"))
        obj["stopping"] = {"max_outer_iters": 3}
        cfg_path = tmp_path / "cap.json"
        cfg_path.write_text(json.dumps(obj))
        assert main(["run", "--config", str(cfg_path), "--out-dir", str(tmp_path)]) == 3

    def test_plot_command(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        save_config(table1_config("1.30", "ACondG1"), cfg_path)
        assert main(["run", "--config", str(cfg_path), "--out-dir", str(tmp_path)]) == 0
        code = main([
            "plot",
            "--trace", str(tmp_path / "cfg_trace.csv"),
            "--config", str(cfg_path),
            "--out", str(tmp_path / "cfg.svg"),
        ])
        assert code == 0
        assert (tmp_path / "cfg.svg").read_text().count("<polyline") >= 3

    def test_table_command(self, tmp_path, capsys):
        code = main(["table", "--which", "1", "--out-dir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "table1_comparison.csv").exists()

    def test_table_verbose_echoes_the_comparison(self, tmp_path, capsys):
        assert main(["table", "--which", "1", "--out-dir", str(tmp_path), "--verbose"]) == 0
        out = capsys.readouterr().out
        comparison = (tmp_path / "table1_comparison.csv").read_text()
        assert out == comparison + f"comparison written to {comparison_path(1, tmp_path)}\n"

    def test_table_exit_code_follows_the_returned_rows(self, tmp_path, monkeypatch):
        capped = TableRow("1.30", "ACondG1", "I", 3, 0.5, "C", "0.00e+00")
        monkeypatch.setattr(cli, "reproduce_table", lambda which, out_dir: [capped])
        code = main(["table", "--which", "1", "--out-dir", str(tmp_path)])
        assert code == 3

    def test_entry_point_installed(self):
        # The subprocess finds the package the tests import, installed or not.
        src = str(Path(feasib.__file__).parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "feasib.cli", "--help"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert "run" in proc.stdout and "table" in proc.stdout
