"""The exact audit (``tests/audit.py``) of the paper's inexact table runs.

Run ``pytest tests/test_audit.py -s`` to see what it counts.
"""

from fractions import Fraction

from feasib import MEMBER_TOL
from feasib.instances import table_config

from audit import inexact_outputs, membership_audit


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
