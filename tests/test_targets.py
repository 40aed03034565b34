"""Printed-equation regression targets: frozen verdicts.

The engine-derived calculus is the ground truth; these tests freeze which
printed lines it confirms and which it exposes as misprints (with the
residual structure hand-verified once for one line per family).
"""

import pytest

from qncalc.targets import conjugate_forms_check, printed_relation_checks, wz_plane_checks

# the six misprinted right-table lines (two wrong left-hand sides, four
# wrong cross-relations involving d)
EXPECTED_5_22_MISMATCHES = {
    "eq-5.22[c.del_c]",
    "eq-5.22[d.del_a:sq]",
    "eq-5.22[a.del_d]",
    "eq-5.22[d.del_a]",
    "eq-5.22[b.del_d]",
    "eq-5.22[d.del_b]",
}


def test_3_24_all_confirmed():
    checks = printed_relation_checks("glq2-left", "eq-3.24")
    assert len(checks) == 16
    for c in checks:
        assert c.status == "pass", (c.name, c.details)


def test_4_4_all_confirmed():
    checks = printed_relation_checks("slq2-left", "eq-4.4")
    assert len(checks) == 16
    for c in checks:
        assert c.status == "pass", (c.name, c.details)


def test_5_22_verdicts_frozen():
    checks = printed_relation_checks("glq2-right", "eq-5.22")
    assert len(checks) == 16
    got = {c.name for c in checks if c.status == "mismatch"}
    assert got == EXPECTED_5_22_MISMATCHES
    for c in checks:
        assert c.status in ("pass", "mismatch")
        if c.status == "mismatch":
            assert "derived:" in c.details  # correction attached


def test_5_22_every_line_has_verdict():
    checks = printed_relation_checks("glq2-right", "eq-5.22")
    assert all(c.status in ("pass", "mismatch") for c in checks)


@pytest.mark.parametrize("side", ("left", "right"))
def test_wz_plane_lines_all_covered(side):
    checks = wz_plane_checks(side)
    assert len(checks) == 7
    for c in checks:
        assert c.status == "pass", (c.name, c.details)


def test_wz_projection_pattern():
    # the printed table merges the two solutions: solution II holds in the
    # first-column/row projection, solution I in the second, and the two
    # square lines split accordingly
    by_name = {c.name: c.details for c in wz_plane_checks("left")}
    assert "qplane-left-b0[x=a,y=c]: holds" in by_name["eq-4.5[II:del_x.y]@left"]
    assert "qplane-left-c0[x=b,y=d]: differs" in by_name["eq-4.5[II:del_x.y]@left"]
    assert "qplane-left-c0[x=b,y=d]: holds" in by_name["eq-4.5[I:del_x.y]@left"]
    assert "qplane-left-b0[x=a,y=c]: holds" in by_name["eq-4.5[I:del_x.x]@left"]
    assert "qplane-left-c0[x=b,y=d]: holds" in by_name["eq-4.5[I:del_y.y]@left"]
    # the algebra line holds in both projections
    assert by_name["eq-4.5[alg]@left"].count("holds") == 2


# -- mutations of the printed files ----------------------------------------------

def test_a_changed_table_coefficient_is_a_mismatch_with_the_derived_rule(edit_paper):
    edit_paper("eq-3.24", "eq-3.24[del_a.a]", "q^-2 a.del_a", "q^2 a.del_a")
    checks = printed_relation_checks("glq2-left", "eq-3.24")
    bad = [c for c in checks if c.status != "pass"]
    assert [c.name for c in bad] == ["eq-3.24[del_a.a]"]
    assert bad[0].status == "mismatch"
    assert "derived: del_a.a -> " in bad[0].details


@pytest.mark.parametrize("old, new, status, details", [
    # a higher-degree coefficient: the leading terms still agree
    ("(1 - q^-4) b.b.a.c.d.th1", "(1 - q^-6) b.b.a.c.d.th1", "mismatch",
     "leading term matches"),
    # the leading coefficient
    ("= q^-2 b.th1", "= q^2 b.th1", "fail", "leading term differs"),
])
def test_a_changed_conjugated_form_coefficient(edit_paper, old, new, status, details):
    edit_paper("sec-5-end", "sec5-end[th1.b]", old, new)
    checks = {c.name: c for c in conjugate_forms_check()}
    c = checks.pop("conjugation[sec5-end[th1.b]]")
    assert c.status == status and c.details.startswith(details)
    assert c.residual
    assert all(o.status == "pass" for o in checks.values())
