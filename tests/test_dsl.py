"""Expression and presentation text formats."""

import pytest
from hypothesis import given, settings, strategies as st

from qncalc.calculus import (
    CALCULUS_PRESETS,
    diff_presentation,
    nilpotent_residuals,
)
from qncalc.dsl import (
    DslError,
    export_presentation,
    parse_equations,
    parse_expression,
    parse_presentation,
    parse_scalar,
)
from qncalc.ncalg import Element, check_local_confluence, normalize
from qncalc.presentations import PRESET_IDS, preset, qdet
from qncalc.qfield import ONE, Scalar
from qncalc.reports import Check

q = Scalar.q_power
w = Element.word


# -- scalar literals -----------------------------------------------------------

def test_parse_scalar_basics():
    assert parse_scalar("q^-1") == q(-1)
    assert parse_scalar("q - q^-1") == q(1) - q(-1)
    assert parse_scalar("2/(1+q^2)") == Scalar.from_int(2) / (ONE + q(2))
    assert parse_scalar("(1+q)^2") == (ONE + q(1)) ** 2
    assert parse_scalar("-3 q^2") == Scalar.from_int(-3) * q(2)


def test_scalar_str_reparses():
    samples = [q(1) - q(-1), Scalar.from_int(2) / (ONE + q(2)),
               (q(4) - 1) / q(5), Scalar.fraction(-7, 3) * q(2) + ONE]
    for s in samples:
        assert parse_scalar(str(s)) == s


def test_parse_scalar_rejects_generators():
    with pytest.raises(DslError):
        parse_scalar("a + 1")


# -- expressions ----------------------------------------------------------------

def test_parse_expression_determinant():
    p = preset("glq2")
    assert parse_expression("a.d - q b.c", p) == qdet(p)


def test_parse_expression_zero():
    assert parse_expression("0", preset("glq2")).is_zero


def test_parse_expression_scalar_coefficient():
    p = preset("glq2")
    lam = q(1) - q(-1)
    assert parse_expression("(q - q^-1) b.c", p) == lam * w("b.c")


def test_parse_expression_errors():
    p = preset("glq2")
    with pytest.raises(DslError):
        parse_expression("a.z", p)               # unknown generator
    with pytest.raises(DslError):
        parse_expression("a.d / b", p)           # non-scalar divisor
    with pytest.raises(DslError):
        parse_expression("a ^ 2", p)             # non-scalar base
    with pytest.raises(DslError):
        parse_expression("q +", p)


# -- bad input: always a positioned DslError ------------------------------------------

@pytest.mark.parametrize("text, column", [("1/0", 3), ("0^-1", 1), ("a.d/(q-q)", 5)])
def test_division_by_zero_is_positioned_error(text, column):
    with pytest.raises(DslError, match="division by zero") as info:
        parse_expression(text, preset("glq2"))
    assert (info.value.line, info.value.column) == (1, column)


def test_nesting_depth_bound():
    assert parse_scalar("(" * 100 + "q" + ")" * 100) == q(1)
    for depth in (101, 400):
        with pytest.raises(DslError, match="nested deeper than 100") as info:
            parse_scalar("(" * depth + "q" + ")" * depth)
        assert info.value.column == 101


def test_long_unary_minus_chain_parses_without_recursion():
    assert parse_scalar("-" * 2000 + "q") == q(1)
    assert parse_scalar("-" * 2001 + "q") == -q(1)


def test_oversized_integer_literal_rejected():
    big = "9" * 1000
    assert parse_scalar(big) == Scalar.from_int(int(big))
    for digits in (1001, 5000):
        with pytest.raises(DslError, match="longer than 1000 digits") as info:
            parse_scalar("1 + " + "9" * digits)
        assert (info.value.line, info.value.column) == (1, 5)


def test_power_bound_checked_before_computing():
    # the bound is |exponent| * max(degree, ceil(log2 |coefficient sum|)) <= 500
    assert parse_scalar("q^500") == q(500)
    assert parse_scalar("q^-500") == q(-500)
    assert parse_scalar("3^250") == Scalar.from_int(3 ** 250)
    assert parse_scalar("1^123456789123456789") == ONE
    for text in ("q^501", "q^-501", "3^251", "(1 + q)^501", "((q^999)^999)^999"):
        with pytest.raises(DslError, match="power too large"):
            parse_scalar(text)


def test_product_bound_checked_before_computing():
    # factor sizes add up to at most 4000: a power s^k counts |k| times the
    # size of s (9^125 is 125 * ceil(log2 9) = 500), a parenthesized factor
    # the size of its value (9^1000 is ceil(log2 9^1000) = 3170)
    eight = " ".join(["9^125"] * 8)
    assert parse_scalar(eight) == Scalar.from_int(9 ** 1000)
    assert parse_scalar(" ".join(["q^500"] * 8)) == q(4000)
    assert parse_scalar("q^500 " * 7 + "q^499 * q") == q(4000)
    assert parse_scalar("(" + eight + ") 2^415 2^415") == Scalar.from_int(9 ** 1000 * 2 ** 830)
    for text, column in ((eight + " 9^125", 49), (" ".join(["q^500"] * 8) + " q", 49),
                         ("q^500 " * 8 + "/ q", 51), ("(" + eight + ") 2^415 2^416", 57),
                         ("(" + eight + ") (" + eight + ")", 51)):
        with pytest.raises(DslError, match="product too large") as info:
            parse_scalar(text)
        assert (info.value.line, info.value.column) == (1, column)


def test_cli_prints_product_of_powers_or_rejects_it(capsys):
    from qncalc.cli import main
    # each power passes its own bound; forty of them would print a
    # coefficient over Python's 4300-digit limit
    assert main(["normalize", "--preset", "glq2", "--expr", " ".join(["9^125"] * 8)]) == 0
    assert capsys.readouterr().out.strip() == str(9 ** 1000)
    assert main(["normalize", "--preset", "glq2", "--expr", " ".join(["9^125"] * 40)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: product too large") and "(line 1, column 49)" in err


def test_cli_reports_bad_expression_without_traceback(capsys):
    from qncalc.cli import main
    for expr in ("1/0", "(" * 400 + "1" + ")" * 400, "9" * 5000, "q^501"):
        assert main(["normalize", "--preset", "glq2", "--expr", expr]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "(line 1, column " in err


def test_cli_reports_exceeded_step_budget_without_traceback(capsys, monkeypatch):
    # a presentation whose rules undo each other; validation rejects it in
    # a file, so it is handed to the command directly
    from qncalc import cli
    from qncalc.ncalg import Generator, Presentation, RewriteRule, TerminationOrder
    loop = Presentation("loop", [Generator("x", 0), Generator("y", 0)],
                        TerminationOrder("deglex"),
                        [RewriteRule(("y", "x"), w("x.y")), RewriteRule(("x", "y"), w("y.x"))])
    monkeypatch.setattr(cli, "_resolve_presentation", lambda args: loop)
    assert cli.main(["normalize", "--preset", "glq2", "--expr", "x.y"]) == 2
    assert capsys.readouterr().err.startswith(
        "error: x.y rewrites back to itself under 'loop'")


def test_cli_normalizes_long_word_within_default_budget(capsys):
    from qncalc.cli import main
    assert main(["normalize", "--preset", "glq2",
                 "--expr", ".".join("d" * 7 + "a" * 7)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("D.D.D.D.D.D.D + ") and out.rstrip().endswith("q^-49 b.b.b.b.b.b.b.c.c.c.c.c.c.c")


@pytest.mark.parametrize("line, column", [
    ("rule y.x -> 1/0", 15),
    ("  rule   y.x -> x.y $", 21),
    ("rule y.x x -> x.y", 10),
    ("rule y.z -> x.y", 8),
    ("rule y.x -> (x.y  # open", 17),
])
def test_rule_line_errors_count_columns_from_line_start(line, column):
    text = "gen x parity even\ngen y parity even\n" + line + "\n"
    with pytest.raises(DslError) as info:
        parse_presentation(text)
    assert (info.value.line, info.value.column) == (3, column)


# expression characters, presentation-file fragments, then arbitrary text
_EXPR_CHARS = "0123456789q()+-*/^. ad"
_LINE_FRAGMENTS = ["\n", "#", "->", "b.c", "x", "rule ", "gen ", " parity even",
                   " parity odd", "order migration left", "extends glq2", "name n"]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(
    st.text(alphabet=_EXPR_CHARS, max_size=30),
    st.lists(st.sampled_from(list(_EXPR_CHARS) + _LINE_FRAGMENTS), max_size=30).map("".join),
    st.text(max_size=60)))
def test_dsl_raises_only_dsl_error(text):
    for parse in (lambda: parse_expression(text, preset("glq2")),
                  lambda: parse_expression(text, ()),
                  lambda: parse_presentation(text)):
        try:
            parse()
        except DslError:
            pass


def test_element_str_reparses():
    p = preset("glq2")
    x = normalize(w("d.a") * w("d.a"), p)
    assert parse_expression(str(x), p) == x


# -- the error table and term order -----------------------------------------------

@pytest.mark.parametrize("text, message, column", [
    ("a.", "generator name expected", 3),
    ("a..b", "generator name expected", 3),
    (".a", "expression expected", 1),
    ("a.d.", "generator name expected", 5),
    ("a .", "generator name expected", 4),
    ("a . .b", "generator name expected", 5),
    ("()", "expression expected", 2),
    ("(", "expression expected", 2),
    (")", "expression expected", 1),
    ("-", "expression expected", 2),
    ("2 -", "expression expected", 4),
    ("q.a", "unexpected '.'", 2),
    ("q.", "unexpected '.'", 2),
    ("a.d q.b", "unexpected '.'", 6),
    ("(q.a)", "')' expected", 3),
    ("a.q", "'q' is the deformation parameter, not a generator", 3),
    ("a. q", "'q' is the deformation parameter, not a generator", 4),
    ("a.2", "generator name expected", 3),
    ("a.zz", "unknown generator 'zz'", 3),
    ("a2", "unknown generator 'a2'", 1),
    ("a$b", "bad character '$'", 2),
    ("q^a", "integer exponent expected after '^'", 3),
    ("a^2", "'^' requires a scalar base", 1),
    ("(a.d)^0", "'^' requires a scalar base", 1),
    ("1/(a)", "division requires a scalar divisor", 3),
])
def test_expression_error_table(text, message, column):
    with pytest.raises(DslError) as info:
        parse_expression(text, preset("glq2"))
    assert str(info.value) == f"{message} (line 1, column {column})"
    assert (info.value.line, info.value.column) == (1, column)


@pytest.mark.parametrize("text, expected", [
    ("a . d", w("a.d")), ("a.\tb", w("a.b")), ("a b", w("a.b")), ("2a", 2 * w("a"))])
def test_word_spellings(text, expected):
    assert parse_expression(text, preset("glq2")) == expected


def test_parsed_terms_keep_source_order():
    x = parse_expression("b.c + a.d - q a.a", preset("glq2"))
    assert list(x.words()) == [("b", "c"), ("a", "d"), ("a", "a")]
    assert [str(c) for _, c in x.items()] == ["1", "1", "-q"]


def test_parser_outcomes_match_pinned_file():
    # values with their term order, or exact errors, of 633 seeded inputs;
    # the generator and the file it wrote are in tests/data
    import importlib.util
    import json
    from pathlib import Path
    path = Path(__file__).resolve().parent / "data" / "dsl_expressions.py"
    spec = importlib.util.spec_from_file_location("dsl_expressions", path)
    pinned = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pinned)
    want = json.loads(pinned.JSON_PATH.read_text())
    got = pinned.outcomes()
    assert len(got) == len(want)
    for g, x in zip(got, want):
        assert g == x


_COEFS = st.lists(st.integers(-5, 5), min_size=1, max_size=4)


@st.composite
def _scalars(draw):
    """Laurent polynomials, and quotients by a non-monomial polynomial."""
    s = Scalar(tuple(draw(_COEFS))) * q(draw(st.integers(-3, 3)))
    if draw(st.booleans()):
        s = s / Scalar(tuple(draw(_COEFS.filter(lambda c: sum(map(bool, c)) > 1))))
    return s


@pytest.mark.parametrize("pid", PRESET_IDS + tuple(f"{c}-diff" for c in CALCULUS_PRESETS))
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_element_str_reparses_on_every_system(pid, data):
    p = diff_presentation(pid[:-5]) if pid.endswith("-diff") else preset(pid)
    names = [g.name for g in p.generators]
    terms = data.draw(st.lists(st.tuples(st.lists(st.sampled_from(names), max_size=4),
                                         _scalars()), max_size=4))
    x = Element.zero()
    for word, c in terms:
        x = x + Element.term(c, word)
    assert parse_expression(str(x), p) == x


# -- presentations -----------------------------------------------------------------

QPLANE_TEXT = """
# coordinate algebra of the quantum plane
gen x parity even
gen y parity even
order deglex
rule y.x -> (1/q) x.y
"""


def test_parse_quantum_plane_coordinates():
    p = parse_presentation(QPLANE_TEXT)
    assert normalize(w("x.y") - q(1) * w("y.x"), p).is_zero


def test_empty_rule_set_is_free_algebra():
    p = parse_presentation("gen x parity even\ngen y parity even\n")
    x = w("y.x") - w("x.y")
    assert normalize(x, p) == x


def test_orientation_violation_rejected():
    bad = "gen x parity even\ngen y parity even\nrule x.y -> q y.x\n"
    with pytest.raises(DslError, match="orientation"):
        parse_presentation(bad)


def test_parity_violation_rejected():
    bad = ("gen x parity even\ngen f parity odd\n"
           "rule x.x -> f\n")
    with pytest.raises(DslError, match="parity"):
        parse_presentation(bad)


@pytest.mark.parametrize("text, tag, line", [
    # a tagged rule after a blank line and a comment: its own line
    ("gen x y z parity even\nrule z.x -> q x.z  @ok\n\n# a comment\n"
     "rule y.x -> y.x + x.y  @t1\n", "t1", 5),
    # an untagged rule is tagged by its line
    ("gen x y parity even\n\nrule y.x -> y.x + x.y\n", "user:3", 3),
    # a tag that two rules share names neither
    ("gen x y z parity even\nrule z.x -> q x.z  @t\nrule y.x -> y.x + x.y  @t\n",
     "t", None),
])
def test_a_rule_that_fails_validation_reports_its_line(text, tag, line):
    with pytest.raises(DslError, match=rf"\[{tag}\] orientation") as exc:
        parse_presentation(text)
    assert exc.value.line == line
    assert str(exc.value).endswith(f"(line {line})" if line else "LHS")


def test_syntax_error_carries_line():
    with pytest.raises(DslError, match="line 2"):
        parse_presentation("gen x parity even\nrule x.x -> @\n")


def test_extends_builtin():
    text = "order deglex\nextends glq2\ngen f parity odd\nrule f.f -> 0\n"
    p = parse_presentation(text)
    assert "f" in p.parity
    assert normalize(w("d.a"), p) == normalize(w("d.a"), preset("glq2"))


def test_wz_plane_example_file():
    from pathlib import Path
    text = Path(__file__).resolve().parent.parent.joinpath(
        "docs", "examples", "wz-plane.preset").read_text()
    p = parse_presentation(text)
    assert check_local_confluence(p).confluent
    # the built-from-scratch calculus satisfies the printed plane relations
    for lhs, rhs in (
            ("del_x.x", "q^-2 x.del_x"),
            ("del_y.y", "q^-2 y.del_y"),
            ("del_x.y", "q^-1 y.del_x"),
            ("del_y.x", "q^-1 x.del_y + (q^-2 - 1) y.del_x")):
        lhs_e = parse_expression(lhs.replace("del_", "d"), p)
        rhs_e = parse_expression(rhs.replace("del_", "d"), p)
        assert normalize(lhs_e - rhs_e, p).is_zero



def test_q_line_calculus_example_file():
    from pathlib import Path
    text = Path(__file__).resolve().parent.parent.joinpath(
        "docs", "examples", "q-line.preset").read_text()
    p = parse_presentation(text)
    d = p.calculus
    assert (d.side, p.form_position, d.coords) == ("left", "right", ("x",))
    assert d.images["xi"] == -q(-2) * w("xi.th")
    assert d.forms == {"th": w("xi.del_x")}
    assert [r.provenance for r in p.rules][1:4] == ["user:8", "commutation", "commutation"]
    assert Check.vanish("nilpotent", "eq-2.15", nilpotent_residuals(p)).status == "pass"
    dp = diff_presentation(p)
    assert {r.lhs: r.rhs for r in dp.rules}[("del_x", "x")] == q(2) * w("x.del_x")


def test_gen_line_declares_several_generators():
    p = parse_presentation("gen x y parity even\ngen f g parity odd\n")
    assert [(g.name, g.parity) for g in p.generators] == [
        ("x", 0), ("y", 0), ("f", 1), ("g", 1)]
    assert p.precedence == {"x": 0, "y": 1, "f": 2, "g": 3}


def test_rule_tag_names_the_provenance():
    p = parse_presentation("gen x y parity even\nrule y.x -> q x.y  @eq-9.1\n")
    assert p.rules[0].provenance == "eq-9.1"


def test_migration_order_sets_form_position():
    p = parse_presentation("order migration left\ngen x parity even\n")
    assert p.form_position == "left"
    assert parse_presentation("gen x parity even\n").form_position is None


def test_extends_inherits_the_calculus():
    p = parse_presentation("extends slq2-left\nname mine\n")
    assert p.calculus == preset("slq2-left").calculus
    assert p.form_position == "right"


_CALCULUS_HEAD = "side left\ngen x parity even\ngen f parity odd\ncoords x\n"


@pytest.mark.parametrize("text, line, column", [
    ("side up\n", 1, None),
    ("gen x parity even\ncoords x\n", None, None),            # no side line
    ("side left\ngen x parity even\ngen f parity odd\ncoords f\n", 4, None),
    ("side left\ncoords y\n", 2, None),
    ("side left\ngen x parity even\ncoords x x\n", 3, None),
    (_CALCULUS_HEAD + "diff x.x -> f\n", 5, None),
    (_CALCULUS_HEAD + "diff x -> y.f\n", 5, 11),
    (_CALCULUS_HEAD + "diff x\n", 5, None),
    (_CALCULUS_HEAD + "form x -> del_x\n", 5, None),
    (_CALCULUS_HEAD + "form f -> del_y\n", 5, 11),
    (_CALCULUS_HEAD + "form f -> f\n", 5, 11),
    (_CALCULUS_HEAD + "dependency\n", 5, None),
    (_CALCULUS_HEAD + "dependency x.del_x - del_z\n", 5, 22),
    # extends replaces what came before it, so it must come first
    ("gen x parity even\nrule x.x -> 0\nextends glq2\n", 3, None),
    ("extends glq2\nextends glq2-left\n", 2, None),
    ("name n\nside left\nextends glq2-left\n", 3, None),
    # the directives of every presentation
    ("name\n", 1, None),
    ("order lex\n", 1, None),
    ("gen x parity even\ngen y x parity odd\n", 2, None),
])
def test_calculus_directive_errors(text, line, column):
    with pytest.raises(DslError) as info:
        parse_presentation(text)
    assert (info.value.line, info.value.column) == (line, column)


@pytest.mark.parametrize("text, line, message", [
    # a generator added under extends, with no diff line
    ("extends glq2-left\ngen z parity even\n", 2, "generator 'z' has no diff line"),
    # a form with no image
    (_CALCULUS_HEAD + "diff x -> x.f\n", 3, "generator 'f' has no diff line"),
    # an image term that adds no form
    (_CALCULUS_HEAD + "diff x -> x.x\n", 5,
     "each term of d(x) needs exactly one odd generator more than x"),
])
def test_calculus_needs_a_form_raising_diff_for_every_generator(text, line, message):
    with pytest.raises(DslError) as info:
        parse_presentation(text)
    assert info.value.line == line
    assert str(info.value) == f"{message} (line {line})"

# -- round-trips -------------------------------------------------------------------

def _record(p):
    """Everything a presentation file declares, in comparable form."""
    return (p.name, p.generators, p.order, p.form_position,
            [(r.lhs, r.rhs, r.provenance) for r in p.rules], p.calculus)


@pytest.mark.parametrize("pid", PRESET_IDS + tuple(f"{c}-diff" for c in CALCULUS_PRESETS))
def test_preset_roundtrip(pid):
    p = diff_presentation(pid) if pid.endswith("-diff") else preset(pid)
    assert _record(parse_presentation(export_presentation(p))) == _record(p)


# -- printed equations ---------------------------------------------------------

def test_parse_equations_reads_tagged_lines():
    text = "# a comment\n\nx.y = q y.x  @eq-1[a]   # and another\ny = 0  @b\n"
    assert parse_equations(text, "xy") == [
        ("eq-1[a]", w("x.y"), Element.term(q(1), ("y", "x"))),
        ("b", w("y"), Element.zero())]


@pytest.mark.parametrize("text, message, line, column", [
    ("\nx.y = y.x", "expected: <expression> = <expression>  @tag", 2, 10),
    ("x.y  @t", "expected: <expression> = <expression>  @tag", 1, 6),
    ("x = y = x  @t", "expected: <expression> = <expression>  @tag", 1, 7),
    ("x = q z  @t", "unknown generator 'z'", 1, 7),
    ("z = x  @t", "unknown generator 'z'", 1, 1),
])
def test_parse_equations_errors_carry_line_and_column(text, message, line, column):
    with pytest.raises(DslError) as exc:
        parse_equations(text, "xy")
    assert str(exc.value).startswith(message)
    assert (exc.value.line, exc.value.column) == (line, column)
