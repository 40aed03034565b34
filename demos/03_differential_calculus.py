"""Left and right exterior derivatives, quantum trace, vector fields.

Run:  python3 demos/03_differential_calculus.py
"""

from qncalc import (
    Element,
    apply_delta,
    check_nilpotent,
    diff_presentation,
    normalize,
    preset,
    qdet,
    qtrace_check,
    vector_field_components,
)
from qncalc.calculus import VECTOR_FIELDS, check_vector_algebra
from qncalc.targets import printed

w = Element.word

print("== the left calculus on the full matrix algebra ==")
pid = "glq2-left"
p, d = preset(pid), preset(pid).calculus
for g in ("a", "b", "D"):
    print(f"  d({g}) = {d.images[g]}")

print("\nthe derivative of the determinant is the trace form:")
det = qdet(p)
print("  d(qdet)      =", apply_delta(det, p))
print("  qdet . tht1  =", normalize(det * w("tht1"), p))
for c in qtrace_check(p):
    print(f"  {c.name}: {c.status}")

print("\nnilpotency on every normal word of degree <= 3:")
print(" ", check_nilpotent(p, 3).details)

print("\n== vector fields ==")
sl = preset("slq2-left")
for g in "abcd":
    comps = vector_field_components(w(g), sl)
    print(f"  components of {g}: "
          + ", ".join(f"V{k} -> {v}" for k, v in sorted(comps.items())))

print("\nthe printed vector-field relations (src/qncalc/paper/vector-slq2-left.eqs)")
print("on all monomials of degree <= 2:")
relations = printed("vector-slq2-left", VECTOR_FIELDS)
for c in check_vector_algebra(relations, sl, 2):
    print(f"  {c.name}: {c.status}")

print("\n== machine-derived differential-mode rules ==")
dp = diff_presentation("slq2-left")
for lhs in (("del_a", "a"), ("del_a", "b"), ("del_d", "b")):
    rule = next(r for r in dp.rules if r.lhs == lhs)
    print(f"  {'.'.join(lhs)} -> {rule.rhs}")
