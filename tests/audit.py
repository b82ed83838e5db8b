"""An exact audit of the points a run's inexact projections return.

Every float is a rational, so ``fractions.Fraction`` decides each test
below exactly, with no rounding of its own. The audit reads only a body's
defining fields, never a cached frame, so it checks the package's frames
and planes rather than repeating them.

``gauge(body, w)`` is a body's membership form: ``(w - c)^T Q (w - c) -
1`` for an ellipsoid, from its ``center`` and ``shape``, and ``<normal, w>
- offset`` for a halfspace. ``w`` is a member exactly when the gauge is at
most 0, and the body's violation is its float value. ``inexact_outputs``
pairs each inexact output of an ACondG1 or ACondG2 report with the body it
was projected onto, ``exact_outputs`` each output of an ExactAlt report,
and ``membership_audit`` gauges them all. ``max_moves`` gives the largest
exact max-norm moves of a run's last two steps, which a lack-of-progress
stop claims are at most ``eps_lack``.
"""

from fractions import Fraction

from feasib import Halfspace

# Which bodies each row's inner results project onto, in call order: the
# sets of ``(a, b)`` by index. A row whose new y lies in A exactly
# (``ca_y == 0``) ends before its projection onto A: an ACondG2 row then
# projects onto B alone, and an ACondG1 row projects nothing.
_SIDES = {"ACondG1": (0,), "ACondG2": (1, 0)}


def gauge(body, w) -> Fraction:
    """``<normal, w> - offset`` for the halfspace ``body``, and ``(w - c)^T
    Q (w - c) - 1`` for the ellipsoid ``body``, exactly."""
    if isinstance(body, Halfspace):
        pairs = zip(body.normal.tolist(), w.tolist())
        return sum(Fraction(n) * Fraction(x) for n, x in pairs) - Fraction(body.offset)
    d = [Fraction(x) - Fraction(c) for x, c in zip(w.tolist(), body.center.tolist())]
    form = sum(
        Fraction(q) * di * dj
        for row, di in zip(body.shape.tolist(), d)
        for q, dj in zip(row, d)
    )
    return form - 1


def inexact_outputs(report, solver, a, b):
    """``(body, w)`` for each inexact projection of an ACondG1 or ACondG2
    ``report`` on the sets ``a`` and ``b``, in the order the run made them."""
    pair = (a, b)
    for row, (_, ca_y) in zip(report.inner_results[1:], report.violations[1:]):
        sides = [i for i in _SIDES[solver] if i == 1 or ca_y != 0.0]
        assert len(row) == len(sides), (solver, len(row), ca_y)
        yield from ((pair[i], res.w_plus) for i, res in zip(sides, row))


def exact_outputs(report, a, b):
    """``(body, w)`` for each projection an ExactAlt ``report`` on the sets
    ``a`` and ``b`` holds: the x rows from row 1, onto A, and the y rows
    of rows 1 on, onto B (a ``y0`` is row 0's)."""
    rows = report.outer_iters
    yield from ((a, x) for x in report.x_trace[1:])
    yield from ((b, y) for y in report.y_trace[len(report.y_trace) - rows:])


def max_moves(trace, steps: int) -> Fraction:
    """The largest max-norm distance, exactly, that the rows of ``trace``
    moved over its last ``steps`` steps."""
    rows = [[Fraction(x) for x in row.tolist()] for row in trace[-steps - 1:]]
    return max(abs(p - q) for old, new in zip(rows, rows[1:]) for p, q in zip(new, old))


def membership_audit(outputs) -> tuple[Fraction, int, int]:
    """The largest gauge over ``(body, w)`` pairs, how many lie outside
    their body exactly (gauge above 0), and how many there are."""
    worst, outside, count = None, 0, 0
    for body, w in outputs:
        g = gauge(body, w)
        worst = g if worst is None or g > worst else worst
        outside += g > 0
        count += 1
    return worst, outside, count
