"""Exact scalars and the rewriting engine on the q-deformed matrix algebra.

Run:  python3 demos/01_rewriting_basics.py
"""

from qncalc import (
    Element,
    Q,
    Scalar,
    check_local_confluence,
    normalize,
    preset,
    qdet,
    random_strategy_normalize,
)

w = Element.word

print("== exact arithmetic in Q(q) ==")
lam = Q - Q ** -1
print("lambda            =", lam)
print("lambda * q/(q^2-1) =", lam * Q / (Q ** 2 - 1))
alpha = Scalar.from_int(2) / (1 + Q ** 2)
print("matched parameter =", alpha, "   at q=1:", alpha.eval_q1(),
      "   under q->1/q:", alpha.invert_q())

print("\n== the glq2 preset ==")
p = preset("glq2")
print(p, "with generators", [g.name for g in p.generators])

print("\nnormal forms (letters sort by precedence; a.d collapses onto D):")
for expr in ("d.a", "a.b", "d.c.b.a"):
    x = w(*expr.split("."))
    print(f"  {expr:10s} -> {normalize(x, p)}")

print("\nthe quantum determinant:")
det = qdet(p)
print("  qdet       =", det)
print("  normalized =", normalize(det, p))
for g in "abcd":
    comm = det * w(g) - w(g) * det
    print(f"  [qdet, {g}]  ->", normalize(comm, p))

print("\nrelations hold modulo the ideal:")
print("  a.b == q b.a  ?", normalize(w("a.b") - Q * w("b.a"), p).is_zero)

print("\nlocal confluence (all critical pairs resolve):")
rep = check_local_confluence(p)
print(f"  {len(rep.pairs)} critical pairs, {len(rep.unresolved)} unresolved")

print("\nstrategy independence on a cubic form word:")
gl = preset("glq2-left")
word = w("tht4.th3.th2")
print("  canonical:", normalize(word, gl))
for seed in range(3):
    print(f"  random strategy (seed {seed}):",
          random_strategy_normalize(word, gl, seed))
