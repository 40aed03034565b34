"""Nested reductions, printed-table regressions, and the DSL.

Run:  python3 demos/04_reductions_and_dsl.py
"""

from pathlib import Path

from qncalc import (
    check_local_confluence,
    normalize,
    parse_expression,
    parse_presentation,
    preset,
    reduction_morphisms,
)
from qncalc.targets import printed_relation_checks, wz_plane_checks

print("== nested reductions (GL -> SL -> plane, both calculi) ==")
for m in reduction_morphisms():
    images = [m.apply(r.relation()) for r in preset(m.source).rules]
    print(f"  {m.name:30s} {len(images)} relations -> "
          f"{'all vanish' if all(x.is_zero for x in images) else 'FAILED'}")

print("\n== regression against the printed right-differential table ==")
print("   (src/qncalc/paper/eq-5.22.eqs, one printed line per text line)")
for c in printed_relation_checks("glq2-right", "eq-5.22"):
    mark = "ok " if c.status == "pass" else "MISPRINT"
    print(f"  [{mark}] {c.name}")
    if c.status != "pass":
        print(f"        {c.details.splitlines()[0][:110]}")

print("\n== the printed plane table, line by line, per projection ==")
for c in wz_plane_checks("left"):
    print(f"  {c.name}: {c.status}  ({c.details})")

print("\n== a quantum plane built from scratch in the DSL ==")
text = Path(__file__).resolve().parent.parent.joinpath(
    "docs", "examples", "wz-plane.preset").read_text()
plane = parse_presentation(text)
print(f"  parsed {plane.name!r}: {len(plane.rules)} rules, "
      f"confluent: {check_local_confluence(plane).confluent}")
for expr in ("dy.x", "dx.dy.y"):
    x = parse_expression(expr, plane)
    print(f"  {expr:10s} -> {normalize(x, plane)}")
