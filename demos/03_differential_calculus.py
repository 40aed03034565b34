"""Left and right exterior derivatives, quantum trace, vector fields.

Run:  python3 demos/03_differential_calculus.py
"""

from qncalc import (
    Element,
    apply_delta,
    diff_presentation,
    nilpotent_residuals,
    normalize,
    preset,
    qdet,
    vector_field_components,
)
from qncalc.calculus import VECTOR_FIELDS, check_vector_algebra
from qncalc.reports import Check
from qncalc.targets import printed, qtrace_check

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
d2 = nilpotent_residuals(p, 3)
print(" ", Check.vanish("nilpotent", "eq-2.15", d2,
                        details=f"d^2 = 0 on {len(d2)} normal words, degree <= 3").details)

print("\n== vector fields ==")
sl = preset("slq2-left")
for g in "abcd":
    comps = vector_field_components(w(g), sl)
    print(f"  components of {g}: "
          + ", ".join(f"V{k} -> {v}" for k, v in sorted(comps.items())))

print("\nthe printed vector-field relations (src/qncalc/paper/vector-slq2-left.eqs)")
print("on all monomials of degree <= 2:")
relations = printed("vector-slq2-left", VECTOR_FIELDS)
for tag, residuals in check_vector_algebra(relations, sl, 2):
    c = Check.vanish(f"vector[{sl.name}][{tag}]", tag, residuals)
    print(f"  {c.name}: {c.status}")

print("\n== machine-derived differential-mode rules ==")
dp = diff_presentation("slq2-left")
for lhs in (("del_a", "a"), ("del_a", "b"), ("del_d", "b")):
    rule = next(r for r in dp.rules if r.lhs == lhs)
    print(f"  {'.'.join(lhs)} -> {rule.rhs}")
