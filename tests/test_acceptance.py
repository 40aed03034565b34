"""Acceptance criteria.

Every criterion is an exact symbolic statement over Q(q) (no numerical
tolerances: equality means identical canonical forms).  Each test prints
one pass/fail line; run with ``pytest -s tests/test_acceptance.py`` to
see them, or rely on the per-test verdicts of ``pytest -v``.
"""

import json
import random
from pathlib import Path

import jsonschema

from qncalc.calculus import (
    CALCULUS_PRESETS,
    VECTOR_FIELDS,
    interchange_left_to_right,
    nilpotent_residuals,
    reduction_morphisms,
)
from qncalc.cli import main
from qncalc.dsl import export_presentation, parse_expression, parse_presentation
from qncalc.ncalg import (
    Element,
    check_local_confluence,
    normalize,
    random_strategy_normalize,
    validate_presentation,
)
from qncalc.presentations import (
    PRESET_IDS,
    antipode_residuals,
    coproduct_residuals,
    preset,
    qdet,
)
from qncalc.qfield import Scalar
from qncalc.reports import Check
from qncalc.rmatrix import (
    forms_rtt_compat,
    perturbed_r,
    rtt_residual,
    standard_r,
    ybe_residual,
)
from qncalc.suites import SuiteConfig, run_all, run_suite
from qncalc.targets import (
    conjugate_forms_check,
    printed,
    printed_relation_checks,
    qtrace_check,
    wz_plane_checks,
)

q = Scalar.q_power
w = Element.word


def _verdict(n, name, ok):
    print(f"ACCEPTANCE {n:2d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {n} ({name})"


def test_criterion_01_yang_baxter():
    res = ybe_residual(standard_r())
    ok = all(c.is_zero for row in res for c in row)
    res_p = ybe_residual(perturbed_r())
    ok = ok and any(not c.is_zero for row in res_p for c in row)
    _verdict(1, "Yang-Baxter: standard R solves, perturbed R does not", ok)


def test_criterion_02_rtt():
    res = rtt_residual(standard_r(), preset("glq2"))
    ok = all(v.is_zero for v in res.values())
    for pid in ("glq2-left", "glq2-right"):
        ok = ok and all(res.is_zero
                        for _, res in forms_rtt_compat(standard_r(), preset(pid)))
    _verdict(2, "RTT components vanish; forms compatible with RTT", ok)


def test_criterion_03_determinant():
    p = preset("glq2")
    ok = normalize(qdet(p), p) == w("D")
    det = qdet(p)
    ok = ok and all(
        normalize(det * w(g) - w(g) * det, p).is_zero for g in "abcd")
    ok = ok and all(res.is_zero for _, res in coproduct_residuals(p))
    ok = ok and all(res.is_zero for _, res in antipode_residuals(p))
    _verdict(3, "determinant: normal form, centrality, coproduct, antipode", ok)


def test_criterion_04_confluence():
    ok = True
    for pid in PRESET_IDS:
        p = preset(pid)
        ok = ok and validate_presentation(p).valid
        ok = ok and check_local_confluence(p).confluent
    gl = preset("glq2-left")
    for word, coef, target in (
            (("tht4", "th3", "th2"), -q(2), ("th2", "th3", "tht4")),
            (("tht4", "th2", "tht1"), -q(4), ("tht1", "th2", "tht4"))):
        expected = Element.term(coef, target)
        ok = ok and normalize(w(*word), gl) == expected
        ok = ok and all(
            random_strategy_normalize(w(*word), gl, seed=s) == expected
            for s in range(5))
    p = preset("glq2")
    rng = random.Random(2024)
    letters = [g.name for g in p.generators]
    for _ in range(200):
        word = tuple(rng.choice(letters) for _ in range(rng.randint(1, 4)))
        want = normalize(w(*word), p)
        ok = ok and all(
            random_strategy_normalize(w(*word), p, seed=s) == want
            for s in range(5))
    _verdict(4, "confluence: all presets, cubic chains, 200 words x 5 seeds", ok)


def test_criterion_05_poincare():
    ok = True
    for pid in CALCULUS_PRESETS:
        c = Check.vanish("nilpotent", "eq-2.15", nilpotent_residuals(preset(pid), 4))
        ok = ok and c.status == "pass"
    _verdict(5, "Poincare: d^2 = 0 on all normal words of degree <= 4", ok)


def test_criterion_06_quantum_trace():
    ok = all(c.status == "pass"
             for pid in ("glq2-left", "glq2-right")
             for c in qtrace_check(preset(pid)))
    _verdict(6, "quantum trace: d(qdet) and both printed trace forms", ok)


def test_criterion_07_vector_fields():
    ok = True
    for pid in ("slq2-left", "glq2-left", "glq2-right"):
        [suite] = run_suite(SuiteConfig(preset(pid), suites=("vector-fields",),
                                        max_degree=3)).suites
        checks = suite.checks
        ok = ok and len(checks) == len(printed(f"vector-{pid}", VECTOR_FIELDS))
        ok = ok and all(c.status == "pass" for c in checks)
        ok = ok and all("reading order" in c.details or c.status != "pass"
                        for c in checks)  # frozen convention recorded
    _verdict(7, "vector fields: cubic relations on all monomials deg <= 3", ok)


def test_criterion_08_printed_regressions():
    c324 = printed_relation_checks("glq2-left", "eq-3.24")
    c44 = printed_relation_checks("slq2-left", "eq-4.4")
    c522 = printed_relation_checks("glq2-right", "eq-5.22")
    verdicts_ok = all(c.status in ("pass", "mismatch") for c in c324 + c44 + c522)
    corrections_ok = all("derived:" in c.details
                         for c in c324 + c44 + c522 if c.status == "mismatch")
    planes_ok = all(c.status == "pass"
                    for side in ("left", "right") for c in wz_plane_checks(side))
    _verdict(8, "regressions: every line CONFIRMED or MISMATCH+correction; "
                "plane projections confirm the printed plane table",
             verdicts_ok and corrections_ok and planes_ok)


def test_criterion_09_nested_reductions():
    ok = True
    for m in reduction_morphisms():
        for r in preset(m.source).rules:
            ok = ok and m.apply(r.relation()).is_zero
    _verdict(9, "nested reductions: GL -> SL -> both planes, both sides", ok)


def test_criterion_10_interchange_and_classical_limit():
    fwd = interchange_left_to_right()
    ok = all(fwd.apply(r.relation()).is_zero for r in preset("glq2-left").rules)
    for pid in PRESET_IDS:
        rep = run_suite(SuiteConfig(preset(pid), suites=("classical-limit",)))
        ok = ok and rep.overall == "pass" and not rep.has_mismatch
    _verdict(10, "interchange maps left rules into the right ideal; "
                 "q -> 1 turns every rule into an exact (anti)commutator", ok)


def test_criterion_11_conjugation():
    checks = conjugate_forms_check()
    ok = all(c.status in ("pass", "mismatch") for c in checks)
    ok = ok and all("leading term matches" in c.details for c in checks)
    _verdict(11, "conjugated forms reproduce the printed relations "
                 "(leading terms exact)", ok)


def test_criterion_12_tooling(tmp_path):
    ok = True
    # DSL round-trip on every preset
    for pid in PRESET_IDS:
        p = preset(pid)
        p2 = parse_presentation(export_presentation(p))
        rng = random.Random(1)
        letters = [g.name for g in p.generators]
        for _ in range(20):
            word = tuple(rng.choice(letters) for _ in range(rng.randint(1, 4)))
            ok = ok and normalize(w(*word), p) == normalize(w(*word), p2)
    # report schema and exit codes
    schema = json.loads(Path(__file__).resolve().parent.parent.joinpath(
        "docs", "report-schema.json").read_text())
    rep = run_all()
    jsonschema.validate(rep.to_json(), schema)
    ok = ok and rep.counts()["fail"] == 0
    ok = ok and rep.exit_code(allow_mismatch=True) == 0
    ok = ok and rep.exit_code(allow_mismatch=False) == 1  # honest misprints
    path = tmp_path / "r.json"
    ok = ok and main(["check", "--preset", "glq2", "--suite", "ybe",
                      "--report", str(path)]) == 0
    jsonschema.validate(json.loads(path.read_text()), schema)
    # the plane built from DSL text reproduces the printed plane relations
    plane = parse_presentation(Path(__file__).resolve().parent.parent.joinpath(
        "docs", "examples", "wz-plane.preset").read_text())
    ok = ok and check_local_confluence(plane).confluent
    for lhs, rhs in (("dx.x", "q^-2 x.dx"), ("dy.y", "q^-2 y.dy"),
                     ("dx.y", "q^-1 y.dx"),
                     ("dy.x", "q^-1 x.dy + (q^-2 - 1) y.dx")):
        rel = parse_expression(lhs, plane) - parse_expression(rhs, plane)
        ok = ok and normalize(rel, plane).is_zero
    _verdict(12, "tooling: DSL round-trips, schema-valid reports, exit codes, "
                 "plane-from-scratch", ok)
