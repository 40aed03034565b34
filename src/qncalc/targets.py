"""The paper's printed equations as data, and the judges that compare
them with the machine-derived calculus.

Each block ``paper/<block>.eqs`` holds printed lines, one per text line
``<expression> = <expression>  @tag``, transcribed verbatim, suspected
typos included (``docs/dsl.md`` lists the blocks and their names).
:func:`printed` reads a block; each judge substitutes elements for the
names.  A table line is judged by normalizing the two sides inside the
(confluent) form-mode preset, which decides membership in the relation
ideal exactly; the derived rule for the same word pair is attached as
the correction whenever a line fails to confirm.
"""

from __future__ import annotations

import os

from .calculus import apply_delta, diff_presentation, maurer_cartan_forms
from .dsl import parse_equations
from .ncalg import Element, Presentation, normalize
from .presentations import builtin_id, preset, qdet
from .reports import Check

__all__ = [
    "TRACE_FORM",
    "VECTOR_FIELD_PRESETS",
    "WZ_PROJECTIONS",
    "printed",
    "printed_relation_checks",
    "qtrace_check",
    "wz_plane_checks",
    "conjugate_forms_check",
]

_PAPER_DIR = os.path.join(os.path.dirname(__file__), "paper")

# the quantum-trace 1-form of each GL calculus, in its diagonalized basis
TRACE_FORM = {"glq2-left": "tht1", "glq2-right": "wb1"}

# the presets with a block ``vector-<id>`` of printed vector-field
# relations, in report order
VECTOR_FIELD_PRESETS = ("slq2-left", "glq2-left", "glq2-right")

# the plane presets whose coordinates (x, y) realize the printed plane, in
# report order: the left calculus uses the matrix columns, the right the rows
WZ_PROJECTIONS = {
    "left": ("qplane-left-b0", "qplane-left-c0"),
    "right": ("qplane-right-c0", "qplane-right-b0"),
}


def printed(block: str, names) -> list:
    """The ``(tag, lhs, rhs)`` lines of ``paper/<block>.eqs``, parsed over
    the generator ``names``."""
    with open(os.path.join(_PAPER_DIR, f"{block}.eqs"), encoding="utf-8") as f:
        return parse_equations(f.read(), names)


def printed_relation_checks(preset_id: str, block: str) -> list:
    """CONFIRMED/MISMATCH verdict per printed line, judged in form mode."""
    p = preset(preset_id)
    subst = p.calculus.del_images()
    if preset_id in TRACE_FORM:
        subst["Tr"] = Element.word(TRACE_FORM[preset_id])
    checks = []
    for tag, lhs, rhs in printed(block, (*subst, *p.parity)):
        res = normalize((lhs - rhs).substitute(subst), p)
        if res.is_zero:
            checks.append(Check(tag, tag.split("[")[0], details="CONFIRMED"))
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


def qtrace_check(p: Presentation) -> list:
    """The trace form reproduces d(qdet), and the two printed expressions
    of it in the standard forms (``paper/trace-<id>.eqs``) hold."""
    pid = builtin_id(p)
    if pid not in TRACE_FORM:
        raise ValueError("quantum-trace check applies to the GL calculus presets")
    subst = {f"S{k}": x for k, x in enumerate(sum(maurer_cartan_forms(p), ()), 1)}
    tr = subst["Tr"] = Element.word(TRACE_FORM[pid])
    checks = []
    for i, (tag, lhs, rhs) in enumerate(printed(f"trace-{pid}", subst), 1):
        res = normalize((rhs - lhs).substitute(subst), p)
        checks.append(Check.of(res.is_zero, f"trace-expression-{i}[{pid}]", tag,
                               residual=str(res)))
    det = qdet(p)
    ddet = apply_delta(det, p)
    want = normalize(det * tr if p.calculus.side == "left" else tr * det, p)
    r3 = ddet - want
    checks.append(Check.of(r3.is_zero, f"d(qdet) = trace rule[{pid}]", "eq-3.6",
                           residual=str(r3)))
    return checks


def wz_plane_checks(side: str) -> list:
    """Check every printed plane line in both coordinate projections.

    The printed table interleaves the two solutions (its two square lines
    belong to different projections), so a line counts as CONFIRMED when
    it holds in at least one projection; the per-projection outcome is
    recorded in the details.
    """
    projections = []
    for pid in WZ_PROJECTIONS[side]:
        p = preset(pid)
        ds = p.calculus
        cx, cy = ds.coords
        projections.append((pid, p, cx, cy, {
            "x": Element.word(cx), "y": Element.word(cy),
            "del_x": ds.images[cx], "del_y": ds.images[cy],
        }))
    checks = []
    for tag, lhs, rhs in printed("eq-4.5", ("x", "y", "del_x", "del_y")):
        outcomes = [(pid, cx, cy, normalize((lhs - rhs).substitute(subst), p).is_zero)
                    for pid, p, cx, cy, subst in projections]
        ok = any(o[3] for o in outcomes)
        detail = "; ".join(
            f"{pid}[x={cx},y={cy}]: {'holds' if good else 'differs'}"
            for pid, cx, cy, good in outcomes)
        checks.append(Check(
            f"{tag}@{side}", "eq-4.5", "pass" if ok else "mismatch",
            residual=None if ok else "holds in neither projection",
            details=detail))
    return checks


def conjugate_forms_check() -> list:
    """Compare theta^k . parameter in ``slq2-right``, where theta =
    S(T).omega.T = S(T).dT are its left forms, against the printed
    higher-degree relations of ``paper/sec-5-end.eqs``; leading
    (lowest-degree) terms must agree, full coefficients are reported
    CONFIRMED or MISMATCH with the residual attached."""
    p = preset("slq2-right")
    subst = dict(zip(("th1", "th2", "th3"), sum(maurer_cartan_forms(p, side="left"), ())))
    checks = []
    for tag, lhs, rhs in printed("sec-5-end", (*"abcd", *subst)):
        lhs = normalize(lhs.substitute(subst), p)
        rhs = normalize(rhs.substitute(subst), p)
        res = lhs - rhs
        lead_ok = _leading_part(lhs) == _leading_part(rhs)
        if res.is_zero:
            checks.append(Check(f"conjugation[{tag}]", "sec-5",
                                details="CONFIRMED; leading term matches"))
        else:
            checks.append(Check(
                f"conjugation[{tag}]", "sec-5",
                "mismatch" if lead_ok else "fail",
                residual=str(res),
                details=("leading term matches; printed higher-degree "
                         "coefficients differ from the derived relation")
                if lead_ok else "leading term differs"))
    return checks


def _leading_part(x: Element) -> Element:
    """The terms of ``x`` of least length."""
    m = min(map(len, x.words()), default=0)
    return Element({w_: c for w_, c in x.items() if len(w_) == m})
