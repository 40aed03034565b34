"""Differential calculus: derivations, traces, derived rules, vector fields."""

import random
import re
from pathlib import Path

import pytest

from qncalc import calculus
from qncalc.calculus import (
    CALCULUS_PRESETS,
    VECTOR_FIELDS,
    DiffStructure,
    apply_delta,
    check_vector_algebra,
    delta_respects_rules,
    diff_presentation,
    form_diff_roundtrip_residuals,
    interchange_left_to_right,
    interchange_right_to_left,
    maurer_cartan_forms,
    maurer_cartan_residuals,
    nilpotent_residuals,
    reduction_morphisms,
    vector_field_components,
)
from qncalc.dsl import parse_expression, parse_presentation
from qncalc.ncalg import (
    Element,
    Presentation,
    StepBudgetExceededError,
    UnknownGeneratorError,
    check_local_confluence,
    normal_words,
    normalize,
    validate_presentation,
)
from qncalc.presentations import preset, preset_without_rule, qdet
from qncalc.qfield import ONE, Scalar
from qncalc.reports import Check
from qncalc.suites import SuiteConfig, run_suite
from qncalc.targets import VECTOR_FIELD_PRESETS, conjugate_forms_check, printed, qtrace_check

q = Scalar.q_power
w = Element.word


def el(*terms):
    out = Element.zero()
    for coef, spec in terms:
        out = out + Element.term(coef, tuple(spec.split(".")) if spec else ())
    return out


def with_calculus(p, d):
    """A new presentation object with p's name and rules and the calculus d."""
    return Presentation(p.name, p.generators, p.order, p.rules, p.form_position, calculus=d)


def nilpotent_line(p, max_degree=0):
    """The report's ``nilpotent[...]`` line on p (the suite's degree 4 by
    default)."""
    [suite] = run_suite(SuiteConfig(p, suites=("delta2",), max_degree=max_degree)).suites
    return suite.checks[0]


# -- differential structure consistency -----------------------------------------

@pytest.mark.parametrize("pid", CALCULUS_PRESETS)
def test_images_raise_form_degree_by_one(pid):
    p = preset(pid)
    d = preset(pid).calculus
    for g, img in d.images.items():
        gdeg = p.form_degree((g,))
        for word in img.words():
            assert p.form_degree(word) == gdeg + 1
            assert p.word_parity(word) == (p.parity[g] + 1) % 2


def test_delta_kills_unit():
    pid = "glq2-left"
    assert apply_delta(Element.unit(), preset(pid)).is_zero


def test_delta_of_a_matches_matrix_identity():
    # d(a) = a theta^1 + b theta^3 with theta^1 = tht1/2 + tht4
    p = preset("glq2-left")
    (theta1, _), (theta3, _) = maurer_cartan_forms(p)
    expected = normalize(w("a") * theta1 + w("b") * theta3, p)
    assert apply_delta(w("a"), p) == expected


def test_delta_three_factor_association():
    pid = "glq2-left"
    p = preset(pid)
    rng = random.Random(5)
    letters = [g.name for g in p.generators]
    for _ in range(25):
        f, g_, h = (w(rng.choice(letters)) for _ in range(3))
        assert apply_delta((f * g_) * h, p) == apply_delta(f * (g_ * h), p)


@pytest.mark.parametrize("pid", CALCULUS_PRESETS)
def test_delta_respects_every_rule(pid):
    for label, res in delta_respects_rules(preset(pid)):
        assert res.is_zero, (pid, label, res)


def product_expansion(x, d, p):
    """d(x) built from Element products prefix * d(g) * suffix, normalized
    once: the reference for :func:`apply_delta`."""
    out = Element.zero()
    for word, coef in x.items():
        for i, g in enumerate(word):
            if d.side == "left":
                sign = -1 if p.word_parity(word[i + 1:]) else 1
            else:
                sign = -1 if p.word_parity(word[:i]) else 1
            term = w(*word[:i]) * d.images[g] * w(*word[i + 1:])
            out = out + term.scale(coef if sign > 0 else -coef)
    return normalize(out, p)


@pytest.mark.parametrize("pid", CALCULUS_PRESETS)
def test_apply_delta_matches_product_expansion(pid):
    p, d = preset(pid), preset(pid).calculus
    for word in normal_words(p, 3):
        x = Element.term(ONE, word)
        once = apply_delta(x, p)
        assert once == product_expansion(x, d, p), word
        assert apply_delta(once, p) == product_expansion(once, d, p), word


# normal words of degree <= 3 per preset: the checked corpus must not shrink
NILPOTENT_WORDS_DEGREE_3 = {
    "glq2-left": 220, "slq2-left": 88, "qplane-left-b0": 38, "qplane-left-c0": 38,
    "glq2-right": 220, "slq2-right": 88, "qplane-right-b0": 38, "qplane-right-c0": 38,
}


@pytest.mark.parametrize("pid", CALCULUS_PRESETS)
def test_nilpotency_degree_three(pid):
    c = nilpotent_line(preset(pid), 3)
    assert c.status == "pass", c.details
    assert c.details == (f"d^2 = 0 on {NILPOTENT_WORDS_DEGREE_3[pid]} normal words, "
                         f"degree <= 3")


def assert_first_failure_reported(pid, form, failed):
    """Flipping the sign of d(form) breaks d^2 = 0; the memoized check must
    report how many words fail and the first failing word with the full
    residual d(d(word))."""
    p, good = preset(pid), preset(pid).calculus
    bad = DiffStructure(good.side, {**good.images, form: -good.images[form]})
    def twice(word):
        return product_expansion(product_expansion(Element.term(ONE, word), bad, p), bad, p)

    c = nilpotent_line(with_calculus(p, bad), 3)
    assert c.status == "fail"
    first = next(word for word in normal_words(p, 3) if not twice(word).is_zero)
    assert c.details == f"{failed} failed; first: {'.'.join(first)}"
    assert c.residual == str(twice(first))


def test_nilpotency_reports_broken_differential():
    assert_first_failure_reported("glq2-left", "tht4", "94 of 220")


def test_nilpotency_reports_broken_right_differential():
    assert_first_failure_reported("slq2-right", "w1", "36 of 88")


@pytest.mark.parametrize("pid", CALCULUS_PRESETS)
def test_derivation_memo_is_per_presentation_object(pid):
    # a copy named like the preset, with d of its last odd generator negated,
    # must get its own d(w) memo: its d^2 fails, the preset's still passes
    p = preset(pid)
    form = p.odd_names()[-1]
    bad = DiffStructure(p.calculus.side, {**p.calculus.images, form: -p.calculus.images[form]})
    assert nilpotent_line(p, 2).status == "pass"
    assert nilpotent_line(with_calculus(p, bad), 2).status == "fail"
    assert nilpotent_line(p, 2).status == "pass"


def test_a_rule_dropped_from_a_calculus_preset_breaks_nilpotency():
    # the copy keeps the calculus, so delta2 runs on it, and its corpus line
    # fails.  That line reads a nonzero normal form as "not in the ideal",
    # which needs confluence: the copy is not locally confluent, and d^2 = 0
    # holds on it in every degree
    # (test_without_a_b_d_squared_vanishes_but_the_corpus_line_fails)
    p = preset_without_rule(preset("glq2-left"), "a.b")
    [suite] = run_suite(SuiteConfig(p, suites=("delta2",))).suites
    check = suite.checks[0]
    assert (check.name, check.status) == ("nilpotent[glq2-left-without-a.b]", "fail")
    assert check.details == "29 of 720 failed; first: b.c.a"


# -- d^2 = 0 in every degree -------------------------------------------------------
# d^2 is an even derivation of the free algebra.  If d maps every rule into
# the ideal I (premise a) and d^2 maps the empty word and every generator
# into I (premise b), then d(I) lies in I and d^2 = 0 on the quotient in
# every degree.  Both premises read only "normal form 0 => in I".

def d2_premises(p):
    """Premise (a) and premise (b), each judged as one family."""
    return (Check.vanish("a", "", delta_respects_rules(p)),
            Check.vanish("b", "", nilpotent_residuals(p, 1)))


@pytest.mark.parametrize("pid", CALCULUS_PRESETS)
def test_d_squared_vanishes_in_every_degree(pid):
    p = preset(pid)
    a, b = d2_premises(p)
    assert (a.status, a.details) == ("pass", f"{len(p.rules)} checks")
    assert (b.status, b.details) == ("pass", f"{len(p.generators) + 1} checks")


# d of one odd generator negated: (premise a, premise b, the degree-2
# corpus) as "k of n failed; first: <label>", or pass
D2_MUTANTS = {
    ("glq2-left", "th2"): ("5 of 51 failed; first: delta-respects[th2.a]",
                           "3 of 11 failed; first: b", "26 of 60 failed; first: b"),
    ("glq2-left", "th3"): ("5 of 51 failed; first: delta-respects[th3.a]",
                           "3 of 11 failed; first: c", "24 of 60 failed; first: c"),
    ("glq2-left", "tht4"): ("pass", "4 of 11 failed; first: b", "26 of 60 failed; first: b"),
    ("slq2-left", "th1"): ("pass", "4 of 8 failed; first: b", "14 of 32 failed; first: b"),
    ("slq2-left", "th2"): ("5 of 25 failed; first: delta-respects[th2.a]",
                           "3 of 8 failed; first: b", "17 of 32 failed; first: b"),
    ("slq2-left", "th3"): ("5 of 25 failed; first: delta-respects[th3.a]",
                           "3 of 8 failed; first: c", "15 of 32 failed; first: c"),
    ("qplane-left-b0", "th3"): ("3 of 13 failed; first: delta-respects[th3.c]",
                                "1 of 6 failed; first: c", "4 of 18 failed; first: c"),
    ("qplane-left-c0", "th2"): ("3 of 13 failed; first: delta-respects[th2.b]",
                                "1 of 6 failed; first: b", "4 of 18 failed; first: b"),
    ("glq2-right", "w2"): ("5 of 51 failed; first: delta-respects[a.w2]",
                           "3 of 11 failed; first: wb4", "24 of 60 failed; first: wb4"),
    ("glq2-right", "w3"): ("5 of 51 failed; first: delta-respects[a.w3]",
                           "3 of 11 failed; first: wb4", "26 of 60 failed; first: wb4"),
    ("glq2-right", "wb4"): ("pass", "4 of 11 failed; first: b", "26 of 60 failed; first: b"),
    ("slq2-right", "w1"): ("pass", "4 of 8 failed; first: b", "14 of 32 failed; first: b"),
    ("slq2-right", "w2"): ("5 of 25 failed; first: delta-respects[a.w2]",
                           "3 of 8 failed; first: w1", "15 of 32 failed; first: w1"),
    ("slq2-right", "w3"): ("5 of 25 failed; first: delta-respects[a.w3]",
                           "3 of 8 failed; first: w1", "17 of 32 failed; first: w1"),
    ("qplane-right-b0", "w3"): ("3 of 13 failed; first: delta-respects[a.w3]",
                                "1 of 6 failed; first: c", "4 of 18 failed; first: c"),
    ("qplane-right-c0", "w2"): ("3 of 13 failed; first: delta-respects[a.w2]",
                                "1 of 6 failed; first: b", "4 of 18 failed; first: b"),
}


def test_the_d_squared_mutants_are_every_odd_generator_with_nonzero_d():
    # d of tht1, wb1 and of the planes' th1 and w1 is 0: negating it is no mutant
    nonzero = {(pid, g) for pid in CALCULUS_PRESETS for g in preset(pid).odd_names()
               if not preset(pid).calculus.images[g].is_zero}
    assert nonzero == set(D2_MUTANTS)


@pytest.mark.parametrize("pid, form", D2_MUTANTS, ids=lambda x: x)
def test_a_negated_differential_breaks_a_premise(pid, form):
    # premise (b) fails on every mutant, premise (a) on those whose negated
    # d meets a rule; the corpus agrees
    p, good = preset(pid), preset(pid).calculus
    bad = with_calculus(p, DiffStructure(good.side, {**good.images, form: -good.images[form]}))
    corpus = Check.vanish("corpus", "", nilpotent_residuals(bad, 2))
    got = tuple(c.details if c.status == "fail" else c.status
                for c in (*d2_premises(bad), corpus))
    assert got == D2_MUTANTS[pid, form]


def test_without_a_b_d_squared_vanishes_but_the_corpus_line_fails():
    # both premises hold, so d^2 = 0 on this quotient in every degree; the
    # 29 corpus words whose d^2 keeps a nonzero normal form lie in the
    # ideal, and 3 critical pairs do not resolve
    p = preset_without_rule(preset("glq2-left"), "a.b")
    a, b = d2_premises(p)
    assert (a.status, a.details) == ("pass", "50 checks")
    assert (b.status, b.details) == ("pass", "11 checks")
    conf = check_local_confluence(p)
    assert len(conf.pairs) == 173
    assert [(u.rule1, u.rule2, u.word) for u in conf.unresolved] == [
        ("eq-2.11", "eq-2.11", ("a", "c", "b")),
        ("eq-2.7", "eq-2.11", ("a", "d", "b")),
        ("eq-2.7", "eq-2.11", ("a", "d", "a"))]


def test_no_calculus_is_a_typed_error():
    p = preset("glq2")
    with pytest.raises(ValueError, match="^glq2 declares no differential calculus$"):
        apply_delta(w("a"), p)
    with pytest.raises(ValueError, match="^glq2 declares no differential calculus$"):
        nilpotent_residuals(p)


def d_of_b_a(d):
    """d(b.a) on a left calculus, the Leibniz terms not yet normalized."""
    return d.images["b"] * w("a") + w("b") * d.images["a"]


def test_delta_budget_holds_after_nilpotency_check():
    pid = "glq2-left"
    p = preset(pid)
    assert nilpotent_line(p).status == "pass"
    fresh = Presentation(p.name, p.generators, p.order, p.rules,
                         form_position=p.form_position)
    with pytest.raises(StepBudgetExceededError):
        normalize(d_of_b_a(p.calculus), fresh, budget=2)


def test_delta_budget_is_independent_of_the_memo():
    pid = "glq2-left"
    p = preset(pid)
    with pytest.raises(StepBudgetExceededError):
        normalize(d_of_b_a(p.calculus), p, budget=2)
    assert nilpotent_line(p).status == "pass"
    with pytest.raises(StepBudgetExceededError):
        normalize(d_of_b_a(p.calculus), p, budget=2)


def test_budget_error_names_the_word():
    # a budget trips while filling the cache (fresh presentation) or when
    # charging a cached normal form; both name the word being normalized
    pid = "glq2-left"
    p = preset(pid)
    fresh = Presentation(p.name, p.generators, p.order, p.rules,
                         form_position=p.form_position)
    msg = re.escape("step budget 2 exceeded while normalizing b.tht4.a under 'glq2-left'")
    with pytest.raises(StepBudgetExceededError, match=msg):
        normalize(d_of_b_a(p.calculus), fresh, budget=2)
    normalize(w("b.tht4.a"), fresh)            # cached now: the charge trips
    with pytest.raises(StepBudgetExceededError, match=msg) as info:
        normalize(d_of_b_a(p.calculus), fresh, budget=2)
    assert info.value.__suppress_context__


@pytest.mark.parametrize("pid", ("glq2-left", "slq2-left", "glq2-right", "slq2-right"))
def test_maurer_cartan_plus_closure(pid):
    for label, res in maurer_cartan_residuals(preset(pid)):
        assert res.is_zero, (label, res)


# the standard forms 1..4 of each preset, written out by hand in its own forms
HAND_TYPED_FORMS = {
    "glq2-left": ("(1/2) tht1 + tht4", "th2", "th3", "(1/2) tht1 - q^2 tht4"),
    "slq2-left": ("th1", "th2", "th3", "-q^2 th1"),
    "qplane-left-b0": ("th1", "0", "th3", "-q^2 th1"),
    "qplane-left-c0": ("th1", "th2", "0", "-q^2 th1"),
    "glq2-right": ("(1/2) wb1 + wb4", "w2", "w3", "(1/2) wb1 - q^-2 wb4"),
    "slq2-right": ("w1", "w2", "w3", "-q^-2 w1"),
    "qplane-right-b0": ("w1", "0", "w3", "-q^-2 w1"),
    "qplane-right-c0": ("w1", "w2", "0", "-q^-2 w1"),
}


@pytest.mark.parametrize("pid", CALCULUS_PRESETS)
def test_standard_forms_are_the_maurer_cartan_forms(pid):
    # S(T).dT on a left calculus and dT.S(T) on a right one, the generators
    # p lacks at their values in the reduction, give the hand-typed basis
    p = preset(pid)
    omega = tuple(normalize(parse_expression(x, p), p) for x in HAND_TYPED_FORMS[pid])
    assert sum(maurer_cartan_forms(p), ()) == omega
    other = "right" if p.calculus.side == "left" else "left"
    assert sum(maurer_cartan_forms(p, side=other), ()) != omega   # the side of S(T) matters


# the omega_k in which the dual writes the forms of each preset
DUAL_ROWS = {"glq2": {1, 2, 3, 4}, "slq2": {1, 2, 3}, "b0": {1, 3}, "c0": {1, 2}}


@pytest.mark.parametrize("pid", CALCULUS_PRESETS)
def test_the_dual_inverts_the_maurer_cartan_forms(pid):
    # each form is sum_k dual[form][k] omega_k; a dependent omega_k (omega_4
    # off GL, a zero omega_2 or omega_3 on a plane) is skipped
    p = preset(pid)
    omega = sum(maurer_cartan_forms(p), ())
    dual = calculus._dual(maurer_cartan_forms(p), p)
    assert set(dual) == set(p.odd_names())
    for form, combo in dual.items():
        rebuilt = sum((c * omega[k - 1] for k, c in combo.items()), Element.zero())
        assert normalize(rebuilt, p) == w(form), (pid, form)
    assert set().union(*dual.values()) == DUAL_ROWS[next(k for k in DUAL_ROWS if k in pid)]


def test_the_dual_of_the_trace_form():
    p = preset("glq2-left")
    two, den = Scalar.from_int(2), ONE + q(2)
    assert calculus._dual(maurer_cartan_forms(p), p)["tht1"] == {1: two * q(2) / den,
                                                               4: two / den}


def test_maurer_cartan_forms_errors_are_typed():
    line = parse_presentation(Path(__file__).resolve().parent.parent.joinpath(
        "docs", "examples", "q-line.preset").read_text())
    with pytest.raises(UnknownGeneratorError) as info:
        maurer_cartan_forms(line)
    assert info.value.args == ("a",)
    with pytest.raises(ValueError, match="declares no differential calculus"):
        maurer_cartan_forms(preset("glq2"))


# -- quantum trace ----------------------------------------------------------------

@pytest.mark.parametrize("pid", ("glq2-left", "glq2-right"))
def test_qtrace(pid):
    for c in qtrace_check(preset(pid)):
        assert c.status == "pass", (c.name, c.residual)


def test_qtrace_judges_the_printed_trace_file(edit_paper):
    # the left calculus's footnote expression does not hold on the right
    edit_paper("trace-glq2-right", "eq-5.19", "(q^-1 S1 + q S4)", "(q S1 + q^-1 S4)")
    checks = qtrace_check(preset("glq2-right"))
    assert [(c.name, c.paper_ref, c.status) for c in checks] == [
        ("trace-expression-1[glq2-right]", "eq-5.11", "pass"),
        ("trace-expression-2[glq2-right]", "eq-5.19", "fail"),
        ("d(qdet) = trace rule[glq2-right]", "eq-3.6", "pass")]
    assert checks[1].residual


def test_trace_scalar_identity():
    # 2q^2/(1+q^2) equals (2/(q+q^-1)) q exactly
    two = Scalar.from_int(2)
    assert two * q(2) / (ONE + q(2)) == (two / (q(1) + q(-1))) * q(1)


def test_sl_presets_have_closed_determinant():
    for pid in ("slq2-left", "slq2-right"):
        p = preset(pid)
        ddet = apply_delta(qdet(p), p)
        assert ddet.is_zero


# -- form <-> differential conversion ----------------------------------------------

@pytest.mark.parametrize("pid", CALCULUS_PRESETS)
def test_form_diff_roundtrip(pid):
    for label, res in form_diff_roundtrip_residuals(preset(pid)):
        assert res.is_zero, (pid, label, res)


def test_antipode_rebuilds_primitive_form():
    # Dinv(d del_a - q^-1 b del_c) recovers theta^1 = tht1/2 + tht4
    p = preset("glq2-left")
    ds = preset("glq2-left").calculus
    expr = preset("glq2-left").calculus.forms["tht1"]
    back = normalize(expr.substitute(
        {f"del_{x}": ds.images[x] for x in "abcd"}), p)
    assert back == w("tht1")


# -- maps of calculi ------------------------------------------------------------------

# (map, whether d commutes up to (-1)^k on form degree k): the interchange
# matches the left calculus, whose d acts from the right (apply_delta's
# peel), with the right calculus, whose d acts from the left
MAPS = ([(m, False) for m in reduction_morphisms()]
        + [(m, True) for m in (interchange_left_to_right(), interchange_right_to_left())])


def dg_residual(m, g, graded):
    """m(d g) - (-1)^k d(m g) in m's target, k = |g| when ``graded``, else 0."""
    src = preset(m.source)
    sign = -ONE if graded and src.parity[g] else ONE
    return (m.apply(apply_delta(w(g), src))
            - sign * apply_delta(m.apply(w(g)), m.target))


@pytest.mark.parametrize("m, graded, g",
                         [pytest.param(m, graded, g.name, id=f"{m.name}[{g.name}]")
                          for m, graded in MAPS for g in preset(m.source).generators])
def test_every_map_commutes_with_d(m, graded, g):
    # by Leibniz, d commutes with m on the whole source once it does on
    # every generator; 68 cases over the eight maps
    res = dg_residual(m, g, graded)
    assert res.is_zero, (m.name, g, str(res))


def test_the_form_images_are_the_ones_d_forces():
    moved = {m.name: {x: y for x, y in m.images.items() if y != w(x)} for m, _ in MAPS}
    one, zero = Element.unit(), Element.zero()
    assert moved == {
        "glq2-left->slq2-left": {"D": one, "Dinv": one, "tht1": zero,
                                 "tht4": w("th1")},
        "slq2-left->qplane-left-c0": {"c": zero, "th3": zero},
        "slq2-left->qplane-left-b0": {"b": zero, "th2": zero},
        "glq2-right->slq2-right": {"D": one, "Dinv": one, "wb1": zero,
                                   "wb4": w("w1")},
        "slq2-right->qplane-right-c0": {"c": zero, "w3": zero},
        "slq2-right->qplane-right-b0": {"b": zero, "w2": zero},
        "interchange": {"a": w("d"), "d": w("a"), "tht1": w("wb1"), "th2": q(1) * w("w2"),
                        "th3": q(-1) * w("w3"), "tht4": -w("wb4")},
        "interchange-rev": {"a": w("d"), "d": w("a"), "wb1": w("tht1"),
                            "w2": q(1) * w("th2"), "w3": q(-1) * w("th3"),
                            "wb4": -w("tht4")},
    }


def test_the_hand_written_interchange_fails_dg():
    # each left form onto its right namesake maps every rule into the right
    # ideal, but does not commute with d
    names = {"a": "d", "d": "a", "tht1": "wb1", "th2": "w2", "th3": "w3", "tht4": "wb4"}
    m = interchange_left_to_right()._replace(images={x: w(y) for x, y in names.items()})
    assert all(m.apply(r.relation()).is_zero for r in preset("glq2-left").rules)
    failing = [g.name for g in preset("glq2-left").generators
               if not dg_residual(m, g.name, True).is_zero]
    assert failing == ["b", "c", "a", "d", "th2", "th3", "tht4"]


def test_two_calculi_no_dg_map_left_to_right_fixes_the_coordinates():
    # the identity on a, b, c, d, D, Dinv, its form images forced by d,
    # sends 18 of the 51 left rules outside the right ideal.  The verdict
    # reads "nonzero normal form => not in I", so it rests on the local
    # confluence of glq2-right (and its deglex order).
    m = calculus._morphism("glq2-left", "glq2-right", {})
    rules = preset("glq2-left").rules
    outside = [r.lhs for r in rules if not m.apply(r.relation()).is_zero]
    assert (len(outside), len(rules)) == (18, 51)
    assert check_local_confluence(preset("glq2-right")).confluent


# -- derived differential rules -----------------------------------------------------

@pytest.mark.parametrize("pid", CALCULUS_PRESETS)
def test_diff_presentations_validate(pid):
    assert validate_presentation(diff_presentation(pid)).valid


@pytest.mark.parametrize("pid", ("glq2-left", "glq2-right", "qplane-left-b0",
                                 "qplane-left-c0", "qplane-right-b0",
                                 "qplane-right-c0"))
def test_diff_presentations_confluent(pid):
    # the unimodular systems are excluded: their three-dimensional form
    # space leaves parameter multiples of the dependency unresolved, which
    # is why printed-line regressions are judged in form mode
    assert check_local_confluence(diff_presentation(pid)).confluent


@pytest.mark.parametrize("pid, unresolved, pairs", [("slq2-left", 11, 45),
                                                    ("slq2-right", 11, 47)])
def test_unimodular_diff_presentations_are_not_locally_confluent(pid, unresolved, pairs):
    # so normalize and export-preset on them give a normal form, not the
    # unique one
    rep = check_local_confluence(diff_presentation(pid))
    assert (len(rep.unresolved), len(rep.pairs)) == (unresolved, pairs)


def test_diff_presentation_is_cached_per_presentation_object():
    # bench/worker.py warms the cache by preset id during set-up
    assert diff_presentation("glq2-left") is diff_presentation(preset("glq2-left"))
    assert diff_presentation("glq2-left-diff") is diff_presentation("glq2-left")
    user = parse_presentation("name glq2-left\nextends glq2-left\n")
    assert diff_presentation(user) is not diff_presentation("glq2-left")


def test_derived_rule_oracles():
    dp = diff_presentation("slq2-left")
    rules = {r.lhs: r.rhs for r in dp.rules}
    assert rules[("del_a", "a")] == q(-2) * w("a.del_a")
    dpc = diff_presentation("qplane-left-c0")
    rules_c = {r.lhs: r.rhs for r in dpc.rules}
    assert rules_c[("del_d", "b")] == q(1) * w("b.del_d")
    assert rules_c[("del_b", "d")] == el((q(1), "d.del_b"), (q(2) - 1, "b.del_d"))
    assert rules_c[("del_b", "b")] == q(2) * w("b.del_b")


def test_sl_dependency_rule_present():
    dp = diff_presentation("slq2-left")
    dep = [r for r in dp.rules if r.provenance.startswith("derived-dependency")]
    assert len(dep) == 1
    assert dep[0].lhs == ("d", "del_a")


# -- vector fields ------------------------------------------------------------------

def test_generator_components_oracle():
    # from d(a) = a th1 + b th3 and d(b) = -q^2 b th1 + a th2
    p = preset("slq2-left")
    assert vector_field_components(w("a"), p) == {1: w("a"), 3: w("b")}
    assert vector_field_components(w("b"), p) == {
        1: Element.term(-q(2), ("b",)), 2: w("a")}


def test_unit_has_zero_components():
    comps = vector_field_components(Element.unit(), preset("slq2-left"))
    assert comps == {}


@pytest.mark.parametrize("pid, rule, message", [
    ("glq2-left", "tht1.a", "expected one form, rightmost, in a.tht1.a"),
    ("glq2-right", "a.wb1", "expected one form, leftmost, in a.wb1.a"),
])
def test_a_form_off_its_slot_stops_the_split(pid, rule, message):
    # without the rule that moves it, one form of d(a.a) stays between the a's
    p = preset(pid)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        calculus._components(w("a.a"), preset_without_rule(p, rule), {})


def test_recombination_identity():
    # sum_k (f V_k) theta^k rebuilds d(f) for random monomials
    pid = "glq2-left"
    p = preset(pid)
    std = dict(enumerate(sum(maurer_cartan_forms(p), ()), 1))
    rng = random.Random(9)
    evens = p.even_names()
    for _ in range(100):
        word = tuple(rng.choice(evens) for _ in range(rng.randint(0, 3)))
        f = w(*word) if word else Element.unit()
        comps = vector_field_components(f, p)
        rebuilt = Element.zero()
        for k, comp in comps.items():
            rebuilt = rebuilt + comp * std[k]
        assert normalize(rebuilt, p) == apply_delta(f, p)


def test_right_recombination_identity():
    pid = "glq2-right"
    p = preset(pid)
    std = dict(enumerate(sum(maurer_cartan_forms(p), ()), 1))
    rng = random.Random(10)
    evens = p.even_names()
    for _ in range(100):
        word = tuple(rng.choice(evens) for _ in range(rng.randint(0, 3)))
        f = w(*word) if word else Element.unit()
        comps = vector_field_components(f, p)
        rebuilt = Element.zero()
        for k, comp in comps.items():
            rebuilt = rebuilt + std[k] * comp
        assert normalize(rebuilt, p) == apply_delta(f, p)


@pytest.mark.parametrize("pid", VECTOR_FIELD_PRESETS)
def test_vector_algebra(pid):
    relations = printed(f"vector-{pid}", VECTOR_FIELDS)
    entries = check_vector_algebra(relations, preset(pid), 2)
    assert [tag for tag, _ in entries] == [tag for tag, _, _ in relations] != []
    for tag, residuals in entries:
        c = Check.vanish(tag, "", residuals)
        assert c.status == "pass", (tag, c.residual, c.details)


def test_vector_algebra_builds_the_basis_table_once(monkeypatch):
    calls = []
    build = calculus.maurer_cartan_forms
    monkeypatch.setattr(calculus, "maurer_cartan_forms", lambda p: calls.append(p) or build(p))
    p = preset("glq2-left")
    check_vector_algebra(printed("vector-glq2-left", VECTOR_FIELDS), p, 2)
    assert calls == [p]


@pytest.mark.parametrize("pid, tag, monomial", [
    ("glq2-left", "eq-3.25[32]", "c"),
    ("glq2-right", "eq-5.14[32]", "b"),
])
def test_vector_algebra_fails_on_a_changed_coefficient(edit_paper, pid, tag, monomial):
    # doubling the coefficient of V3 V2 in the printed line leaves exactly
    # that term as residual
    edit_paper(f"vector-{pid}", tag, "V3.V2 - ", "2 V3.V2 - ")
    [suite] = run_suite(SuiteConfig(preset(pid), suites=("vector-fields",))).suites
    [check] = [c for c in suite.checks if c.name == f"vector[{pid}][{tag}]"]
    assert check.status == "fail"
    assert check.details == f"40 of 70 failed; first: {monomial}"
    assert check.residual == monomial
    assert all(c.status == "pass" for c in suite.checks if c is not check)


# -- conjugated forms -----------------------------------------------------------------

def test_conjugation_all_confirmed():
    for c in conjugate_forms_check():
        assert c.status == "pass", (c.name, c.status, c.residual)
        assert "leading term matches" in c.details
