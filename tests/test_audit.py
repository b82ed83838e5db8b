"""The exact audit (``tests/audit.py``) of the paper's inexact table runs.

Run ``pytest tests/test_audit.py -s`` to see what it counts.
"""

from fractions import Fraction

from feasib import MEMBER_TOL, StopCode
from feasib.instances import table_config

from audit import exact_outputs, inexact_outputs, max_moves, membership_audit


def test_inexact_table_outputs_are_members_to_member_tol_exactly(table_reports):
    # Every point ACondG1 and ACondG2 project onto an ellipse lies in it to
    # MEMBER_TOL, in exact arithmetic. ACondG2 at 2.359 (11,324 outputs, 0.6
    # s more) is left out for time. How many lie outside exactly, by a few
    # roundings, depends on every bit of the runs, so it is printed and not
    # asserted.
    outputs = []
    for (which, label, solver), report in table_reports.items():
        if solver in ("ACondG1", "ACondG2") and (label, solver) != ("2.359", "ACondG2"):
            a, b = table_config(which, label, solver).bodies
            outputs += inexact_outputs(report, solver, a, b)
    worst, outside, count = membership_audit(outputs)
    print(f"{count} inexact outputs, {outside} outside exactly, worst gauge {float(worst):.3g}")
    assert count > 2000
    assert worst <= Fraction(MEMBER_TOL)


def test_exact_table_outputs_are_members_and_their_stops_hold_exactly(table_reports):
    # Every point the ExactAlt runs project onto an ellipse or a halfspace
    # lies in it to MEMBER_TOL, in exact arithmetic, and each run stops for
    # lack of progress after two steps that moved x and y at most eps_lack,
    # exactly. MEMBER_TOL is a rounding-sensitive bound here: the worst
    # ExactAlt output, at 2.359, reads 9.998e-13, 2.4e-16 under it (9.991e-13
    # on the runs gauged here), so a change that rounds one projection apart
    # may cross it. It is printed, with how many outputs lie outside
    # exactly. ExactAlt2 at 2.359 (16,792 outputs, 0.7 s) is left out of
    # the gauges for time; its stop is checked.
    outputs, stops = [], 0
    for (which, label, solver), report in table_reports.items():
        if not solver.startswith("ExactAlt"):
            continue
        config = table_config(which, label, solver)
        assert report.stop_code is StopCode.LACK_OF_PROGRESS
        eps_lack = Fraction(config.stopping.eps_lack)
        assert max_moves(report.x_trace, 2) <= eps_lack
        assert max_moves(report.y_trace, 2) <= eps_lack
        stops += 1
        if label != "2.359":
            outputs += exact_outputs(report, *config.bodies)
    worst, outside, count = membership_audit(outputs)
    print(f"{count} exact outputs, {outside} outside exactly, worst gauge {float(worst):.4g}")
    assert stops == 16
    assert count == 2 * 3161
    assert worst <= Fraction(MEMBER_TOL)
