"""Printed parameter/differential relation tables as regression targets.

Each table transcribes the printed equations verbatim, suspected typos
included; ``Tr`` stands for the quantum-trace 1-form and ``Dinv`` for the
inverse determinant.  A line is judged by substituting the generator
differentials and normalizing the two sides inside the (confluent)
form-mode preset, which decides membership in the relation ideal exactly;
the machine-derived rule for the same word pair is attached as the
correction whenever a line fails to confirm.
"""

from __future__ import annotations

from .calculus import TRACE_FORM, diff_presentation
from .dsl import parse_expression
from .ncalg import Element, normalize
from .presentations import preset
from .reports import Check

__all__ = [
    "PRINTED_3_24",
    "PRINTED_4_4",
    "PRINTED_5_22",
    "PRINTED_4_5",
    "WZ_PROJECTIONS",
    "printed_relation_checks",
    "wz_plane_checks",
]

# (tag, printed LHS, printed RHS); Tr multiplies from the side it is
# printed on (right of the monomial in the left table, left in the right
# table)

PRINTED_3_24 = (
    ("eq-3.24[del_a.a]", "del_a.a",
     "q^-2 a.del_a + ((q^2 - 1)/(2 q^2)) a.a.Tr"),
    ("eq-3.24[del_c.c]", "del_c.c",
     "q^-2 c.del_c + ((q^2 - 1)/(2 q^2)) c.c.Tr"),
    ("eq-3.24[del_a.c]", "del_a.c",
     "q^-1 c.del_a + ((q^2 - 1)/(2 q^2)) a.c.Tr"),
    ("eq-3.24[del_c.a]", "del_c.a",
     "q^-1 a.del_c + (q^-2 - 1) c.del_a + ((q^2 - 1)/(2 q^2)) c.a.Tr"),
    ("eq-3.24[del_b.b]", "del_b.b",
     "q^2 b.del_b + ((1 - q^2)/2) b.b.Tr"),
    ("eq-3.24[del_d.d]", "del_d.d",
     "q^2 d.del_d + ((1 - q^2)/2) d.d.Tr"),
    ("eq-3.24[del_b.d]", "del_b.d",
     "q d.del_b + (q^2 - 1) b.del_d + ((1 - q^2)/2) b.d.Tr"),
    ("eq-3.24[del_d.b]", "del_d.b",
     "q b.del_d + ((1 - q^2)/2) d.b.Tr"),
    ("eq-3.24[del_a.b]", "del_a.b",
     "q b.del_a + ((q^2 - 1)/q^2) a.b.Dinv (q c.del_b - a.del_d)"
     " + ((q^2 - 1)/(2 q^2)) a.b.Tr"),
    ("eq-3.24[del_a.d]", "del_a.d",
     "d.del_a + (q - q^-1) b.del_c"
     " + (q^2 - 1) a.d.Dinv (d.del_a - q^-1 b.del_c)"
     " - ((q^2 - 1)/2) a.d.Tr"),
    ("eq-3.24[del_c.b]", "del_c.b",
     "b.del_c + (q^2 - 1) c.b.Dinv (d.del_a - q^-1 b.del_c)"
     " - ((q^2 - 1)/2) c.b.Tr"),
    ("eq-3.24[del_c.d]", "del_c.d",
     "q d.del_c + (q^2 - 1) c.d.Dinv (d.del_a - q^-1 b.del_c)"
     " - ((q^2 - 1)/2) c.d.Tr"),
    ("eq-3.24[del_b.a]", "del_b.a",
     "q^-1 a.del_b + ((q^2 - 1)/q^2) b.a.Dinv (q c.del_b - a.del_d)"
     " + ((q^2 - 1)/(2 q^2)) b.a.Tr"),
    ("eq-3.24[del_b.c]", "del_b.c",
     "c.del_b + (q^2 - 1) b.c.Dinv (d.del_a - q^-1 b.del_c)"
     " - ((q^2 - 1)/2) b.c.Tr"),
    ("eq-3.24[del_d.a]", "del_d.a",
     "a.del_d - (q - q^-1) c.del_b"
     " + (q^2 - 1) d.a.Dinv (d.del_a - q^-1 b.del_c)"
     " - ((q^2 - 1)/2) d.a.Tr"),
    ("eq-3.24[del_d.c]", "del_d.c",
     "q^-1 c.del_d + (q^2 - 1) d.c.Dinv (d.del_a - q^-1 b.del_c)"
     " - ((q^2 - 1)/2) d.c.Tr"),
)

PRINTED_4_4 = (
    ("eq-4.4[del_a.a]", "del_a.a", "q^-2 a.del_a"),
    ("eq-4.4[del_c.c]", "del_c.c", "q^-2 c.del_c"),
    ("eq-4.4[del_a.c]", "del_a.c", "q^-1 c.del_a"),
    ("eq-4.4[del_c.a]", "del_c.a", "q^-1 a.del_c + (q^-2 - 1) c.del_a"),
    ("eq-4.4[del_b.b]", "del_b.b", "q^2 b.del_b"),
    ("eq-4.4[del_d.d]", "del_d.d", "q^2 d.del_d"),
    ("eq-4.4[del_b.d]", "del_b.d", "q d.del_b + (q^2 - 1) b.del_d"),
    ("eq-4.4[del_d.b]", "del_d.b", "q b.del_d"),
    ("eq-4.4[del_a.b]", "del_a.b",
     "q b.del_a + (q^2 - 1) a.b.d.del_a + (q^-1 - q) a.b.b.del_c"),
    ("eq-4.4[del_a.d]", "del_a.d",
     "q^2 d.del_a + q (q^2 - 1) b.c.d.del_a + (1 - q^2) b.b.c.del_c"),
    ("eq-4.4[del_c.b]", "del_c.b",
     "b.del_c + (q^2 - 1) b.c.d.del_a + (q^-1 - q) b.b.c.del_c"),
    ("eq-4.4[del_c.d]", "del_c.d",
     "q d.del_c + (q^2 - 1) c.d.d.del_a + (q^-1 - q) c.d.b.del_c"),
    ("eq-4.4[del_b.a]", "del_b.a",
     "q^-1 a.del_b + (q^2 - 1) b.a.d.del_a + (1 - q^2) b.b.a.del_c"),
    ("eq-4.4[del_b.c]", "del_b.c",
     "c.del_b + (q^2 - 1) b.c.d.del_a + (q^-1 - q) b.b.c.del_c"),
    ("eq-4.4[del_d.a]", "del_d.a",
     "q^-2 a.del_d + q^-2 (q^-1 - q) b.c.a.del_d + (1 - q^-2) b.c.c.del_b"),
    ("eq-4.4[del_d.c]", "del_d.c",
     "q^-1 c.del_d + (q^-2 - 1) d.c.a.del_d + (q - q^-1) d.c.c.del_b"),
)

PRINTED_5_22 = (
    ("eq-5.22[a.del_a]", "a.del_a", "q^2 del_a.a + ((1 - q^2)/2) Tr.a.a"),
    ("eq-5.22[b.del_b]", "b.del_b", "q^2 del_b.b + ((1 - q^2)/2) Tr.b.b"),
    # next two lines transcribed exactly as printed (suspected typos)
    ("eq-5.22[c.del_c]", "c.del_c", "q^-2 del_b.b + ((1 - q^-2)/2) Tr.c.c"),
    ("eq-5.22[d.del_a:sq]", "d.del_a", "q^-2 del_d.d + ((1 - q^-2)/2) Tr.d.d"),
    ("eq-5.22[b.del_a]", "b.del_a", "q del_a.b + ((1 - q^2)/2) Tr.b.a"),
    ("eq-5.22[a.del_b]", "a.del_b",
     "q del_b.a + (q^2 - 1) del_a.b + ((1 - q^2)/2) Tr.a.b"),
    ("eq-5.22[d.del_c]", "d.del_c",
     "q^-1 del_c.d + (q^-2 - 1) del_d.c + ((1 - q^-2)/2) Tr.d.c"),
    ("eq-5.22[c.del_d]", "c.del_d", "q^-1 del_d.c + ((1 - q^-2)/2) Tr.c.d"),
    ("eq-5.22[a.del_c]", "a.del_c",
     "q del_c.a + (q - q^-1) Dinv (del_b.c - q^-1 del_a.d) a.c"
     " + ((1 - q^-2)/2) Tr.a.c"),
    ("eq-5.22[c.del_a]", "c.del_a",
     "q^-1 del_a.c + (q - q^-1) Dinv (del_b.c - q^-1 del_a.d) c.a"
     " + ((1 - q^-2)/2) Tr.c.a"),
    ("eq-5.22[a.del_d]", "a.del_d",
     "del_d.a + (q - q^-1) Dinv (del_b.c - q^-1 del_a.d) a.d"
     " + ((1 - q^-2)/2) Tr.a.d"),
    ("eq-5.22[d.del_a]", "d.del_a",
     "del_a.d + (q - q^-1) Dinv (del_b.c - q^-1 del_a.d) d.a"
     " + ((1 - q^-2)/2) Tr.d.a"),
    ("eq-5.22[b.del_c]", "b.del_c",
     "del_c.b + (q - q^-1) Dinv (del_b.c - q^-1 del_a.d) b.c"
     " + ((1 - q^-2)/2) Tr.b.c"),
    ("eq-5.22[c.del_b]", "c.del_b",
     "del_b.c + (q - q^-1) Dinv (del_b.c - q^-1 del_a.d) c.b"
     " + ((1 - q^-2)/2) Tr.c.b"),
    ("eq-5.22[b.del_d]", "b.del_d",
     "del_d.b + (q - q^-1) Dinv (del_b.c - q^-1 del_a.d) b.d"
     " + ((1 - q^-2)/2) Tr.b.d"),
    ("eq-5.22[d.del_b]", "d.del_b",
     "del_b.d + (q - q^-1) Dinv (del_b.c - q^-1 del_a.d) d.b"
     " + ((1 - q^-2)/2) Tr.d.b"),
)

# the two Wess-Zumino quantum-plane calculi, written with abstract
# coordinates x, y (solution II is solution I under q -> 1/q, x <-> y)
PRINTED_4_5 = (
    ("eq-4.5[alg]", "x.y", "q y.x"),
    ("eq-4.5[I:del_x.x]", "del_x.x", "q^-2 x.del_x"),
    ("eq-4.5[I:del_y.y]", "del_y.y", "q^2 y.del_y"),
    ("eq-4.5[I:del_x.y]", "del_x.y", "q y.del_x + (q^2 - 1) x.del_y"),
    ("eq-4.5[I:del_y.x]", "del_y.x", "q x.del_y"),
    ("eq-4.5[II:del_x.y]", "del_x.y", "q^-1 y.del_x"),
    ("eq-4.5[II:del_y.x]", "del_y.x", "q^-1 x.del_y + (q^-2 - 1) y.del_x"),
)

# the plane presets whose coordinates (x, y) realize the printed plane, in
# report order: the left calculus uses the matrix columns, the right the rows
WZ_PROJECTIONS = {
    "left": ("qplane-left-b0", "qplane-left-c0"),
    "right": ("qplane-right-c0", "qplane-right-b0"),
}


def printed_relation_checks(preset_id: str, table) -> list:
    """CONFIRMED/MISMATCH verdict per printed line, judged in form mode."""
    p = preset(preset_id)
    subst = p.calculus.del_images()
    if preset_id in TRACE_FORM:
        subst["Tr"] = Element.word(TRACE_FORM[preset_id])
    names = tuple(subst) + tuple(g.name for g in p.generators)
    checks = []
    for tag, lhs_s, rhs_s in table:
        lhs = parse_expression(lhs_s, names)
        rhs = parse_expression(rhs_s, names)
        res = normalize((lhs - rhs).substitute(subst), p)
        if res.is_zero:
            checks.append(Check.passed(tag, tag.split("[")[0],
                                       details="CONFIRMED"))
        else:
            lhs_word = next(iter(lhs.words()))
            derived = next((f"{'.'.join(lhs_word)} -> {r.rhs}"
                            for r in diff_presentation(p).rules if r.lhs == lhs_word),
                           f"no derived rule with LHS {'.'.join(lhs_word)}")
            checks.append(Check(
                tag, tag.split("[")[0], "mismatch",
                residual=str(res),
                details="printed line differs from the derived relation; "
                        f"derived: {derived}"))
    return checks


def wz_plane_checks(side: str) -> list:
    """Check every printed plane line in both coordinate projections.

    The printed table interleaves the two solutions (its two square lines
    belong to different projections), so a line counts as CONFIRMED when
    it holds in at least one projection; the per-projection outcome is
    recorded in the details.
    """
    checks = []
    for tag, lhs_s, rhs_s in PRINTED_4_5:
        outcomes = []
        for pid in WZ_PROJECTIONS[side]:
            p = preset(pid)
            ds = p.calculus
            cx, cy = ds.coords
            subst = {
                "x": Element.word(cx), "y": Element.word(cy),
                "del_x": ds.images[cx], "del_y": ds.images[cy],
            }
            rel = (parse_expression(lhs_s, tuple(subst))
                   - parse_expression(rhs_s, tuple(subst)))
            res = normalize(rel.substitute(subst), p)
            outcomes.append((pid, cx, cy, res.is_zero))
        ok = any(o[3] for o in outcomes)
        detail = "; ".join(
            f"{pid}[x={cx},y={cy}]: {'holds' if good else 'differs'}"
            for pid, cx, cy, good in outcomes)
        checks.append(Check(
            f"{tag}@{side}", "eq-4.5", "pass" if ok else "mismatch",
            residual=None if ok else "holds in neither projection",
            details=detail))
    return checks
