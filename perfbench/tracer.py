"""Outside-in layer tracer for feasib.

The tracer wraps feasib's public functions and body methods, the layer
boundaries, without touching the package's source. Each wrapper records one
span per call. Spans are folded into per-name totals as they close (calls,
inclusive time, self time), because a pass makes millions of calls and
keeping each span would cost more memory than the program itself. Self
time is a span's duration minus the time of the traced spans it caused.

Functions that other modules import by name (``as_vector``,
``condg_project``, the solvers, ...) are replaced in every feasib module
that binds them, so a call through any import path is seen.
"""

from __future__ import annotations

import functools
import os
import sys
from time import perf_counter

from feasib import bodies, condg, instances, runner, solvers

_METHODS = [
    (bodies.Ellipsoid, "lo_minimize", "bodies.ellipsoid.lo_minimize"),
    (bodies.Ball, "lo_minimize", "bodies.ball.lo_minimize"),
    (bodies.Box, "lo_minimize", "bodies.box.lo_minimize"),
    (bodies.Ellipsoid, "project", "bodies.ellipsoid.project"),
    (bodies.Halfspace, "project", "bodies.halfspace.project"),
    (bodies.Ball, "project", "bodies.ball.project"),
    (bodies.Box, "project", "bodies.box.project"),
    (bodies.Ellipsoid, "violation", "bodies.violation"),
    (bodies.Halfspace, "violation", "bodies.violation"),
    (bodies.Ball, "violation", "bodies.violation"),
    (bodies.Box, "violation", "bodies.violation"),
    (bodies.Ellipsoid, "__init__", "bodies.ellipsoid.build"),
]

_SOLVERS = (solvers.acondg1, solvers.acondg2, solvers.averaged_projection,
            solvers.exact_alternating)


class LayerTracer:
    """Install with :meth:`install`, read with :meth:`metrics`, remove with
    :meth:`uninstall`. One tracer per process."""

    def __init__(self):
        self._stack: list[float] = []  # child time of each open span
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        # name -> [calls, inclusive seconds, self seconds]
        self.spans: dict[str, list] = {}
        self.counts = {"inner_iters": 0, "inner_caps": 0, "outer_iters": 0,
                       "rows": 0, "bytes": 0}

    def _wrap(self, name: str, fn, on_result=None):
        stack = self._stack
        totals = self.spans.setdefault(name, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = stack.pop()
                totals[0] += 1
                totals[1] += elapsed
                totals[2] += elapsed - children
                if stack:
                    stack[-1] += elapsed
            if on_result is not None:
                on_result(result, args)
            return result

        return traced

    def _on_condg(self, result, args) -> None:
        self.counts["inner_iters"] += result.inner_iters
        self.counts["inner_caps"] += result.stop_reason is condg.CondGStop.ITERATION_CAP

    def _on_solver(self, report, args) -> None:
        self.counts["outer_iters"] += report.outer_iters

    def _on_trace_csv(self, result, args) -> None:
        path, report = args[0], args[1]
        self.counts["rows"] += len(report.x_trace)
        self.counts["bytes"] += os.path.getsize(path)

    def _patch_function(self, fn, name: str, on_result=None) -> None:
        traced = self._wrap(name, fn, on_result)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "feasib" and not mod_name.startswith("feasib."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patches.append((mod, attr, fn))
                    setattr(mod, attr, traced)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        self.reset()
        # Spans bind their totals at wrap time, so wrap after reset.
        for cls, attr, name in _METHODS:
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original))
        self._patch_function(bodies.as_vector, "bodies.as_vector")
        self._patch_function(condg.condg_project, "condg.project", self._on_condg)
        self._patch_function(condg.phi, "condg.phi")
        for fn in _SOLVERS:
            self._patch_function(fn, "solvers", self._on_solver)
        self._patch_function(instances.load_config, "instances.load_config")
        self._patch_function(instances.validate_config, "instances.validate_config")
        self._patch_function(runner.write_trace_csv, "runner.write_trace_csv",
                             self._on_trace_csv)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything traced since :meth:`install`,
        except ``trace.overhead_share``, which needs an untraced pass."""
        out: dict[str, float] = {}

        def span(name):
            return self.spans.get(name, [0, 0.0, 0.0])

        def per(value, base, scale=1e6):
            return value / base * scale if base else 0.0

        for name in ("bodies.ellipsoid.lo_minimize", "bodies.ball.lo_minimize",
                     "bodies.box.lo_minimize", "bodies.as_vector",
                     "bodies.violation", "bodies.ellipsoid.project",
                     "bodies.halfspace.project", "bodies.ball.project",
                     "bodies.box.project", "bodies.ellipsoid.build",
                     "condg.project", "condg.phi", "instances.load_config",
                     "instances.validate_config", "runner.write_trace_csv"):
            calls, _, self_s = span(name)
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        # Per-call and per-iteration costs are inclusive: they include the
        # traced calls a span makes, such as as_vector inside lo_minimize.
        for name in ("bodies.ellipsoid.lo_minimize", "bodies.ellipsoid.project"):
            calls, total, _ = span(name)
            out[f"{name}.us_per_call"] = per(total, calls)
        calls, total, _ = span("condg.project")
        out["condg.project.inner_iters"] = self.counts["inner_iters"]
        out["condg.project.us_per_inner_iter"] = per(total, self.counts["inner_iters"])
        out["condg.project.cap_share"] = per(self.counts["inner_caps"], calls, 1.0)
        # Outer-loop bookkeeping: solver time not spent in traced children.
        _, _, self_s = span("solvers")
        out["solvers.outer_iters"] = self.counts["outer_iters"]
        out["solvers.self_s"] = self_s
        out["solvers.us_per_outer_iter"] = per(self_s, self.counts["outer_iters"])
        out["runner.write_trace_csv.rows"] = self.counts["rows"]
        out["runner.write_trace_csv.bytes"] = self.counts["bytes"]
        out["runner.write_trace_csv.us_per_row"] = per(
            span("runner.write_trace_csv")[2], self.counts["rows"])
        return out
