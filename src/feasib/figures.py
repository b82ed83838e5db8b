"""Self-contained SVG rendering of 2-D traces over the two sets.

The output embeds no external assets: set boundaries as polylines, the two
iterate paths with markers, start and end markers, and a small legend.
A halfspace's boundary is its line, clipped around the data; every compact
set's outline is drawn through its linear oracle ``lo_minimize``, the one
place that states its geometry, as the answers to 513 outward directions
once round the unit circle.
Coordinates are in problem units inside a declared viewBox; the vertical
axis is flipped to the usual mathematical orientation.
"""

from __future__ import annotations

import csv
import itertools
import math
from pathlib import Path

import numpy as np

from .bodies import ConvexBody, Halfspace
from .instances import InstanceConfig, build_bodies

__all__ = ["render_figure"]

_COLOR_A = "#1f77b4"
_COLOR_B = "#d62728"
_COLOR_X = "#2ca02c"
_COLOR_Y = "#ff7f0e"

_OUTLINE_POINTS = 512


def _fmt(v: float) -> str:
    return format(float(v), ".6g")


def _read_trace(path) -> tuple[list, list]:
    """Read finite x and y points (in file order) from a trace CSV."""
    xs, ys = [], []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        if "x1" not in header:
            raise ValueError(f"{path} is not a trace CSV")
        if "x3" in header or not {"x2", "y1", "y2"} <= set(header):
            raise ValueError("only 2-D traces can be rendered")
        for row in reader:
            try:  # a missing cell reads as None
                x = (float(row["x1"]), float(row["x2"]))
                y = (float(row["y1"]), float(row["y2"]))
            except (TypeError, ValueError):
                raise ValueError(
                    f"{path}, line {reader.line_num}: x1, x2, y1, y2 must be numbers"
                ) from None
            if all(math.isfinite(c) for c in x):
                xs.append(x)
            if all(math.isfinite(c) for c in y):
                ys.append(y)
    return xs, ys


def _boundary_points(body: ConvexBody, bbox) -> list[tuple[float, float]]:
    if isinstance(body, Halfspace):
        # Boundary line clipped to a generous margin around the data box.
        a = body.normal
        foot = (body.offset / float(a @ a)) * a
        tangent = np.array([-a[1], a[0]]) / float(np.linalg.norm(a))
        (x0, x1), (y0, y1) = bbox
        span = 2.0 * max(x1 - x0, y1 - y0, 1.0)
        p, q = foot - span * tangent, foot + span * tangent
        return [tuple(p), tuple(q)]
    # A compact set's outline is its oracle's answers to the outward
    # directions once round the circle, from 225 degrees, so that a box's
    # runs from its lower corner; a corner repeated in a row is drawn once.
    ts = np.linspace(1.25 * math.pi, 3.25 * math.pi, _OUTLINE_POINTS + 1)
    points = (tuple(body.lo_minimize([-math.cos(t), -math.sin(t)])[0].tolist()) for t in ts)
    return [p for p, _ in itertools.groupby(points)]


def _polyline(points, color, width, dashed=False, opacity=1.0) -> str:
    pts = " ".join(f"{_fmt(x)},{_fmt(-y)}" for x, y in points)
    dash = ' stroke-dasharray="4,3"' if dashed else ""
    return (
        f'<polyline points="{pts}" fill="none" stroke="{color}" '
        f'stroke-width="{_fmt(width)}" opacity="{_fmt(opacity)}"'
        f' vector-effect="non-scaling-stroke"{dash}/>'
    )


def _markers(points, color, radius) -> str:
    return "".join(
        f'<circle cx="{_fmt(x)}" cy="{_fmt(-y)}" r="{_fmt(radius)}" '
        f'fill="{color}"/>'
        for x, y in points
    )


def render_figure(trace_path, config: InstanceConfig, out_path) -> Path:
    """Render a trace CSV over its instance's sets into a standalone SVG."""
    if config.dimension != 2:
        raise ValueError("only 2-D instances can be rendered")
    xs, ys = _read_trace(trace_path)
    bodies = build_bodies(config)
    # Each compact outline is computed once; a halfspace's line needs the box.
    outlines = [None if isinstance(b, Halfspace) else _boundary_points(b, None)
                for b in bodies]

    pts = list(xs) + list(ys) + [p for outline in outlines if outline for p in outline]
    if not pts:
        pts = [(0.0, 0.0), (1.0, 1.0)]
    px = [p[0] for p in pts]
    py = [p[1] for p in pts]
    bbox = ((min(px), max(px)), (min(py), max(py)))
    pad = 0.08 * max(bbox[0][1] - bbox[0][0], bbox[1][1] - bbox[1][0], 1e-6)
    x_lo, x_hi = bbox[0][0] - pad, bbox[0][1] + pad
    y_lo, y_hi = bbox[1][0] - pad, bbox[1][1] + pad
    width, height = x_hi - x_lo, y_hi - y_lo
    scale = max(width, height)
    marker = 0.008 * scale

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{_fmt(x_lo)} '
        f'{_fmt(-y_hi)} {_fmt(width)} {_fmt(height)}" width="640" '
        f'height="{_fmt(640.0 * height / width)}">',
        f'<rect x="{_fmt(x_lo)}" y="{_fmt(-y_hi)}" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" fill="white"/>',
    ]
    for body, outline, color in zip(bodies, outlines, (_COLOR_A, _COLOR_B)):
        parts.append(_polyline(outline or _boundary_points(body, bbox), color, 1.6))
    if xs:
        parts.append(_polyline(xs, _COLOR_X, 1.2, opacity=0.9))
        parts.append(_markers(xs, _COLOR_X, marker))
    if ys:
        parts.append(_polyline(ys, _COLOR_Y, 1.2, dashed=True, opacity=0.9))
        parts.append(_markers(ys, _COLOR_Y, marker))
    if xs:
        sx, sy = xs[0]
        ex, ey = xs[-1]
        parts.append(
            f'<rect x="{_fmt(sx - 1.6 * marker)}" y="{_fmt(-sy - 1.6 * marker)}" '
            f'width="{_fmt(3.2 * marker)}" height="{_fmt(3.2 * marker)}" '
            f'fill="none" stroke="black" stroke-width="1" '
            f'vector-effect="non-scaling-stroke"/>'
        )
        parts.append(
            f'<circle cx="{_fmt(ex)}" cy="{_fmt(-ey)}" r="{_fmt(2.0 * marker)}" '
            f'fill="none" stroke="black" stroke-width="1" '
            f'vector-effect="non-scaling-stroke"/>'
        )

    legend = [
        ("set A boundary", _COLOR_A),
        ("set B boundary", _COLOR_B),
        ("x iterates", _COLOR_X),
        ("y iterates", _COLOR_Y),
    ]
    font = 0.035 * scale
    lx, ly = x_lo + 0.03 * scale, -y_hi + 0.05 * scale
    for i, (label, color) in enumerate(legend):
        yy = ly + i * 1.4 * font
        parts.append(
            f'<line x1="{_fmt(lx)}" y1="{_fmt(yy - 0.3 * font)}" '
            f'x2="{_fmt(lx + 1.5 * font)}" y2="{_fmt(yy - 0.3 * font)}" '
            f'stroke="{color}" stroke-width="2" '
            f'vector-effect="non-scaling-stroke"/>'
        )
        parts.append(
            f'<text x="{_fmt(lx + 2.0 * font)}" y="{_fmt(yy)}" '
            f'font-family="sans-serif" font-size="{_fmt(font)}">{label}</text>'
        )
    parts.append("</svg>")

    out_path = Path(out_path)
    out_path.write_text("\n".join(parts) + "\n")
    return out_path
