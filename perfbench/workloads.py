"""The benchmark's three workloads: inputs, one pass, and the check of a pass.

A workload object is built once per process; building it is the set-up that
``setup_s`` times. ``run_pass`` is the timed work. ``solves`` turns a pass's
raw outcomes into :class:`Solve` records and ``check`` lists what is wrong
with one record; both run outside the timed region.

* ``fw_tangent`` / ``exact_tangent`` run saved table configs through
  ``feasib.cli.main(["run", ...])``, the path a user of the CLI takes.
* ``nd_pairs`` calls the public solver API on n-D pairs and writes every
  trace through ``feasib.runner.write_trace_csv``.

Every call into ``feasib`` goes through a module attribute at call time, so
the layer tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import feasib
import feasib.cli
import feasib.instances
import feasib.oracles
import feasib.runner

# The library's own membership threshold for starting points and anchors.
MEMBER_TOL = 1e-10
# An exact-baseline stall on meeting sets ends with 0 < violation <= this.
STALL_MAX = 1e-6
# An L row on disjoint sets ends within this share of the oracle limit.
LIMIT_RTOL = 0.02
# Oracle distances above this mean the two sets do not meet; the meeting
# table pairs come out near 1e-11, the closest disjoint one at 6.6e-5.
DISJOINT_DIST = 1e-7

TABLE_ROWS = {
    # 2.359 ACondG2 is left out: 11.7 s per solve, and its paper value is not
    # the oracle limit.
    "fw_tangent": ((1, "1.42", "ACondG1"), (2, "2.358", "ACondG2"),
                   (2, "2.36", "ACondG2")),
    "exact_tangent": ((1, "1.42", "ExactAlt1"), (2, "2.358", "ExactAlt2"),
                      (2, "2.359", "ExactAlt2"), (2, "2.36", "ExactAlt2")),
}
INEXACT_SOLVERS = ("ACondG1", "ACondG2", "Averaged")


@dataclass
class Solve:
    """What one solve produced, as read back from its outputs."""

    name: str
    stop_code: str = ""
    outer_iters: int = 0
    inner_iters: int = 0
    min_violation: float = math.nan
    # The larger finite entry of the final violation pair.
    max_violation: float = math.nan
    trace_sha256: str = ""
    # Violation of the final x-iterate against its own set, and of the final
    # y-iterate against its own (0.0 when the solver has no y-iterate).
    own_violations: tuple[float, float] = (math.nan, math.nan)
    error: str | None = None

    def golden(self) -> list:
        return [self.name, self.stop_code, self.outer_iters, self.inner_iters,
                self.trace_sha256]


@dataclass(frozen=True)
class Expect:
    """What a correct solve of one pair must show."""

    codes: frozenset[str]
    solver: str
    disjoint: bool
    # Oracle limit of the final violation on disjoint sets; None where the
    # solver's violation pair measures another point (Averaged).
    limit: float | None = None


def check(solve: Solve, expect: Expect) -> list[str]:
    """Problems with one solve; an empty list means it is correct."""
    if solve.error is not None:
        return [solve.error]
    problems = []
    v = solve.min_violation
    if solve.stop_code not in expect.codes:
        problems.append(f"stop code {solve.stop_code}, expected {sorted(expect.codes)}")
    if not all(x <= MEMBER_TOL for x in solve.own_violations):
        problems.append(f"final iterates leave their own sets: {solve.own_violations}")
    if solve.stop_code == "C" and expect.solver in INEXACT_SOLVERS and v != 0.0:
        problems.append(f"inexact C row ends at violation {v!r}, not 0")
    if solve.stop_code == "L":
        if not expect.disjoint:
            # Averaged's pair measures one averaged iterate against both
            # sets, so its stall is judged on the larger entry.
            stall = solve.max_violation if expect.solver == "Averaged" else v
            if not 0.0 < stall <= STALL_MAX:
                problems.append(f"stall on meeting sets ends at violation {stall!r}")
        elif expect.limit is not None:
            if not abs(v - expect.limit) <= LIMIT_RTOL * expect.limit:
                problems.append(f"L row ends at {v!r}, oracle limit {expect.limit!r}")
        elif not v > 0.0:
            problems.append(f"L row on disjoint sets ends at violation {v!r}")
    return problems


def source_digest() -> str:
    """SHA-256 of the feasib sources, the key of cached oracle limits."""
    h = hashlib.sha256()
    for path in sorted(Path(feasib.__file__).parent.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class OracleCache:
    """Oracle limits computed once per source tree and kept in one JSON file.

    ``dist_two_bodies`` takes 20 s on the 2.359 pair, longer than a run
    measures, so each pair is computed once and reused by later runs of the
    same sources.
    """

    def __init__(self, path: Path):
        self.path = path
        self.digest = source_digest()
        try:
            self.entries = json.loads(path.read_text())
        except (FileNotFoundError, json.JSONDecodeError):
            self.entries = {}

    def limit(self, key: str, a, b) -> tuple[bool, float]:
        """``(disjoint, limit)`` of the pair: the smaller violation of each
        set's nearest point against the other set."""
        full = f"{self.digest}:{key}"
        if full not in self.entries:
            dist, xa, yb = feasib.oracles.dist_two_bodies(a, b)
            self.entries[full] = [dist, min(b.violation(xa), a.violation(yb))]
            self.path.parent.mkdir(parents=True, exist_ok=True)
            tmp = self.path.with_suffix(".tmp")
            tmp.write_text(json.dumps(self.entries, indent=1, sort_keys=True))
            tmp.replace(self.path)
        dist, limit = self.entries[full]
        return dist > DISJOINT_DIST, limit


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# --- table rows through the CLI --------------------------------------------


@dataclass
class _TableRun:
    name: str
    table: int
    label: str
    solver: str
    config_path: Path
    dim: int
    a: object
    b: object


class TableWorkload:
    """Saved table configs run through ``feasib run``; outputs are
    overwritten in place by every pass."""

    def __init__(self, rows, tmp: Path):
        config_dir = tmp / "configs"
        self.out_dir = tmp / "out"
        config_dir.mkdir()
        self.out_dir.mkdir()
        self.runs = []
        for table, label, solver in rows:
            make = (feasib.instances.table1_config if table == 1
                    else feasib.instances.table2_config)
            config = make(label, solver)
            feasib.instances.validate_config(config)
            path = config_dir / f"{solver}_{label}.json"
            feasib.instances.save_config(config, path)
            a, b = feasib.instances.build_bodies(config)
            self.runs.append(_TableRun(f"{solver}@{label}", table, label, solver,
                                       path, config.dimension, a, b))

    def expectations(self, cache: OracleCache) -> list[Expect]:
        out = []
        for run in self.runs:
            ref_code, _ = feasib.instances.table_reference(run.table)[run.label][run.solver]
            disjoint, limit = cache.limit(f"table{run.table}:{run.label}", run.a, run.b)
            out.append(Expect(frozenset(ref_code), run.solver, disjoint,
                              limit if disjoint else None))
        return out

    def run_pass(self) -> list:
        outcomes = []
        with contextlib.redirect_stdout(io.StringIO()):
            for run in self.runs:
                argv = ["run", "--config", str(run.config_path),
                        "--out-dir", str(self.out_dir)]
                try:
                    outcomes.append(feasib.cli.main(argv))
                except Exception as exc:  # a raising solve is a failed solve
                    outcomes.append(exc)
        return outcomes

    def solves(self, outcomes) -> list[Solve]:
        return [self._solve(run, rc) for run, rc in zip(self.runs, outcomes)]

    def _solve(self, run: _TableRun, rc) -> Solve:
        if isinstance(rc, Exception):
            return Solve(run.name, error=f"raised {rc!r}")
        if rc != 0:
            return Solve(run.name, error=f"feasib run exited with {rc}")
        stem = run.config_path.stem
        summary = json.loads((self.out_dir / f"{stem}_summary.json").read_text())
        trace = self.out_dir / f"{stem}_trace.csv"
        with open(trace, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        n = run.dim
        last = [float(c) for c in rows[-1]]
        x, y = last[1:1 + n], last[1 + n:1 + 2 * n]
        pair = [c for c in last[1 + 2 * n:3 + 2 * n] if math.isfinite(c)]
        y_viol = 0.0 if any(map(math.isnan, y)) else run.b.violation(y)
        return Solve(
            run.name,
            stop_code=summary["stop_code"],
            outer_iters=summary["outer_iters"],
            inner_iters=sum(int(r[-1]) for r in rows),
            min_violation=summary["min_violation"],
            max_violation=max(pair),
            trace_sha256=_sha256(trace),
            own_violations=(run.a.violation(x), y_viol),
        )


# --- n-D pairs through the solver API ---------------------------------------

ND_DIMS = (16, 64, 256)
# (solver, first set, second set). Frank-Wolfe projects onto ellipsoids and
# balls only; boxes and halfspaces are the exactly projected second set.
# A box projected by Frank-Wolfe on disjoint pairs caps the inner loop at
# every outer step (over 8 s per solve), so no pair does that.
ND_KINDS = (
    ("acondg1", "ellipsoid", "box"),
    ("acondg1", "ball", "halfspace"),
    ("acondg2", "ellipsoid", "ellipsoid"),
    ("averaged_projection", "ellipsoid", "ball"),
    ("exact_alternating", "ellipsoid", "halfspace"),
    ("exact_alternating", "ellipsoid", "box"),
)
ND_REPLICAS = 2
# Overlap depth and gap along the pair's axis. Shallower overlaps put the
# averaged solver near tangency, where one solve takes seconds.
ND_DEPTH = 0.1
ND_GAP = 0.1
# The pair family is drawn once from this fixed seed; ``--seed`` then maps
# every pair through a random signed permutation of coordinates plus a
# translation. That is an isometry, so every seed gives new inputs with the
# same geometry and the same work, and a pass costs the same on every seed.
ND_FAMILY_SEED = 1912_04247
_SOLVER_NAMES = {"acondg1": "ACondG1", "acondg2": "ACondG2",
                 "averaged_projection": "Averaged",
                 "exact_alternating": "ExactAlt"}


@dataclass
class NdPair:
    name: str
    solver: str
    a: object
    b: object
    x0: np.ndarray
    y0: np.ndarray | None
    disjoint: bool

    @property
    def dim(self) -> int:
        return self.a.dim

    def solve(self):
        fn = getattr(feasib, self.solver)
        if self.solver in ("acondg2", "averaged_projection"):
            return fn(self.a, self.b, self.x0, self.y0)
        return fn(self.a, self.b, self.x0)


def _rotation(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def _body_spec(rng, kind: str, n: int, scale: float) -> dict:
    """A body centred at the origin, as plain arrays."""
    if kind == "ellipsoid":
        rot = _rotation(rng, n)
        semi = scale * rng.permutation(np.linspace(0.6, 1.4, n))
        return {"kind": kind, "center": np.zeros(n),
                "shape": (rot * semi**-2) @ rot.T}
    if kind == "ball":
        return {"kind": kind, "center": np.zeros(n), "radius": scale}
    half = scale * rng.permutation(np.linspace(0.6, 1.4, n))
    return {"kind": kind, "lower": -half, "upper": half}


def _lowest(spec: dict, u: np.ndarray) -> np.ndarray:
    """The point of a body that minimises ``<u, z>``."""
    if spec["kind"] == "ellipsoid":
        w = np.linalg.solve(spec["shape"], u)
        return spec["center"] - w / math.sqrt(float(u @ w))
    if spec["kind"] == "ball":
        return spec["center"] - spec["radius"] * u
    return np.where(u < 0.0, spec["upper"], spec["lower"])


def _shifted(spec: dict, c: np.ndarray) -> dict:
    if spec["kind"] == "box":
        return {**spec, "lower": spec["lower"] + c, "upper": spec["upper"] + c}
    return {**spec, "center": spec["center"] + c}


def _pair_family() -> list[dict]:
    """The fixed family of pairs in canonical coordinates.

    Set B touches A's highest point along a random axis ``u``: it overlaps
    A by ``ND_DEPTH`` (so B's lowest point is inside A and the sets meet) or
    stays ``ND_GAP`` above it (so the hyperplane normal to ``u`` separates
    them). Both starts lie on the far sides, outside the other set.
    """
    rng = np.random.default_rng(ND_FAMILY_SEED)
    family = []
    for n in ND_DIMS:
        for solver, kind_a, kind_b in ND_KINDS:
            for replica in range(ND_REPLICAS):
                for disjoint in (False, True):
                    u = rng.normal(size=n)
                    u /= np.linalg.norm(u)
                    a = _body_spec(rng, kind_a, n, 1.0)
                    top = _lowest(a, -u)
                    shift = ND_GAP if disjoint else -ND_DEPTH
                    if kind_b == "halfspace":
                        b = {"kind": kind_b, "normal": -u,
                             "offset": -(float(u @ top) + shift)}
                        y0 = None
                    else:
                        b0 = _body_spec(rng, kind_b, n, 0.5)
                        b = _shifted(b0, top + shift * u - _lowest(b0, u))
                        y0 = _lowest(b, -u) if solver in (
                            "acondg2", "averaged_projection") else None
                    family.append({
                        "name": f"{_SOLVER_NAMES[solver]}:{kind_a}-{kind_b}:n{n}:"
                                f"{'disjoint' if disjoint else 'meet'}{replica}",
                        "solver": solver, "a": a, "b": b,
                        "x0": _lowest(a, u), "y0": y0, "disjoint": disjoint,
                    })
    return family


def _build(spec: dict, perm, sign, shift):
    """Build the body ``spec`` mapped by ``z -> sign * z[perm] + shift``."""
    kind = spec["kind"]
    if kind == "halfspace":
        normal = sign * spec["normal"][perm]
        return feasib.Halfspace(normal=normal,
                                offset=spec["offset"] + float(normal @ shift))
    if kind == "box":
        lo, hi = sign * spec["lower"][perm], sign * spec["upper"][perm]
        return feasib.Box(lower=np.minimum(lo, hi) + shift,
                          upper=np.maximum(lo, hi) + shift)
    center = sign * spec["center"][perm] + shift
    if kind == "ball":
        return feasib.Ball(center=center, radius=spec["radius"])
    shape = spec["shape"][np.ix_(perm, perm)] * np.outer(sign, sign)
    return feasib.Ellipsoid(center=center, shape=shape)


def nd_pairs(seed: int) -> list[NdPair]:
    """The n-D pairs of ``seed``: the fixed family under a seeded isometry."""
    rng = np.random.default_rng(seed)
    maps = {n: (rng.permutation(n), rng.choice([-1.0, 1.0], size=n),
                rng.uniform(-1.0, 1.0, size=n)) for n in ND_DIMS}
    pairs = []
    for spec in _pair_family():
        perm, sign, shift = maps[spec["a"]["center"].shape[0]]
        point = lambda z: None if z is None else sign * z[perm] + shift
        pairs.append(NdPair(
            spec["name"], spec["solver"],
            _build(spec["a"], perm, sign, shift),
            _build(spec["b"], perm, sign, shift),
            point(spec["x0"]), point(spec["y0"]), spec["disjoint"],
        ))
    return pairs


class NdPairsWorkload:
    """Seeded n-D pairs solved through the public API; every trace goes
    through ``runner.write_trace_csv`` into files overwritten by each pass."""

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.pairs = nd_pairs(seed)
        self.out_dir = tmp / "out"
        self.out_dir.mkdir()
        self.paths = [self.out_dir / f"{i:03d}_trace.csv"
                      for i in range(len(self.pairs))]

    def expectations(self, cache: OracleCache) -> list[Expect]:
        out = []
        for i, p in enumerate(self.pairs):
            solver = _SOLVER_NAMES[p.solver]
            if not p.disjoint:
                # ExactAlt, and Averaged (whose lack-of-progress test runs
                # before its eps_feas test), may stall on meeting sets.
                codes = {"C"} if solver in ("ACondG1", "ACondG2") else {"C", "L"}
                out.append(Expect(frozenset(codes), solver, False))
                continue
            limit = None
            if solver != "Averaged":
                _, limit = cache.limit(f"nd:{self.seed}:{i}", p.a, p.b)
            out.append(Expect(frozenset("L"), solver, True, limit))
        return out

    def run_pass(self) -> list:
        outcomes = []
        for pair, path in zip(self.pairs, self.paths):
            try:
                report = pair.solve()
                feasib.runner.write_trace_csv(path, report, pair.dim)
                outcomes.append(report)
            except Exception as exc:  # a raising solve is a failed solve
                outcomes.append(exc)
        return outcomes

    def solves(self, outcomes) -> list[Solve]:
        out = []
        for pair, path, report in zip(self.pairs, self.paths, outcomes):
            if isinstance(report, Exception):
                out.append(Solve(pair.name, error=f"raised {report!r}"))
                continue
            # Averaged keeps its A-side outputs in anchor_trace; x_trace holds
            # the averaged iterate, which need not lie in either set.
            x_own = (report.anchor_trace[-1] if report.anchor_trace is not None
                     else report.x_last)
            y_viol = pair.b.violation(report.y_last) if report.y_trace else 0.0
            final = [c for c in report.violations[-1] if math.isfinite(c)]
            out.append(Solve(
                pair.name,
                stop_code=report.stop_code.letter,
                outer_iters=report.outer_iters,
                inner_iters=report.inner_iter_total,
                min_violation=report.min_violation,
                max_violation=max(final),
                trace_sha256=_sha256(path),
                own_violations=(pair.a.violation(x_own), y_viol),
            ))
        return out


WORKLOADS = ("fw_tangent", "exact_tangent", "nd_pairs")


def make_workload(name: str, seed: int, tmp: Path):
    """Build a workload; this is the set-up ``setup_s`` times.

    The table workloads run the paper's fixed instances, so their inputs do
    not depend on ``seed``.
    """
    if name in TABLE_ROWS:
        return TableWorkload(TABLE_ROWS[name], tmp)
    if name == "nd_pairs":
        return NdPairsWorkload(seed, tmp)
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
