"""Suite runner, JSON reports, schema validation, CLI exit codes."""

import json
import os
import random
import subprocess
import sys
import threading
from pathlib import Path

import jsonschema
import pytest

from qncalc import rmatrix, suites
from qncalc.calculus import diff_presentation
from qncalc.cli import main
from qncalc.dsl import export_presentation, parse_presentation
from qncalc.ncalg import Element, StepBudgetExceededError, normalize
from qncalc.presentations import coproduct_residuals, preset, preset_without_rule
from qncalc.reports import Check, SuiteReport
from qncalc.suites import SUITE_NAMES, SuiteConfig, run_all, run_suite
from qncalc.targets import printed

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = json.loads(ROOT.joinpath("docs", "report-schema.json").read_text())
DATA = Path(__file__).resolve().parent / "data"
EXAMPLES = ROOT / "docs" / "examples"


def test_suite_names_stable():
    assert set(SUITE_NAMES) == {
        "confluence", "rtt", "ybe", "hopf", "delta2", "qtrace",
        "vector-fields", "reductions", "regression-3.24", "regression-4.4",
        "regression-5.22", "interchange", "classical-limit", "conjugation",
    }


def test_run_suite_single():
    rep = run_suite(SuiteConfig(preset("glq2"), suites=("ybe", "hopf")))
    assert rep.overall == "pass"
    jsonschema.validate(rep.to_json(), SCHEMA)


def test_skipped_status_for_inapplicable_suite():
    rep = run_suite(SuiteConfig(preset("qplane-left-b0"), suites=("qtrace",)))
    checks = rep.suites[0].checks
    assert checks and all(c.status == "skipped" for c in checks)
    assert rep.overall == "pass"


def test_unknown_suite_rejected():
    with pytest.raises(KeyError):
        run_suite(SuiteConfig(preset("glq2"), suites=("nope",)))


def test_run_all_schema_and_exit_codes():
    rep = run_all()
    jsonschema.validate(rep.to_json(), SCHEMA)
    counts = rep.counts()
    assert counts["fail"] == 0
    assert counts["mismatch"] == 6          # the printed right-table misprints
    assert rep.overall == "pass"            # overall is pass iff no check fails
    assert rep.exit_code(allow_mismatch=False) == 1
    assert rep.exit_code(allow_mismatch=True) == 0


def test_report_determinism():
    a = run_suite(SuiteConfig(preset("glq2"), suites=("confluence",), seed=7))
    b = run_suite(SuiteConfig(preset("glq2"), suites=("confluence",), seed=7))
    ja, jb = a.to_json(), b.to_json()
    for rep in (ja, jb):
        for s in rep["suites"]:
            for c in s["checks"]:
                c["ms"] = 0.0
    assert ja == jb
    assert ja["seed"] == 7


def test_verify_paper_matches_golden_report():
    # a speed change must leave the full report identical apart from timing
    golden = json.loads(DATA.joinpath("verify_paper_seed7.json").read_text())
    rep = run_all(seed=7).to_json()
    for s in rep["suites"]:
        for c in s["checks"]:
            c["ms"] = 0.0
    assert rep == golden
    assert rep["counts"] == {"pass": 185, "fail": 0, "mismatch": 6, "skipped": 0}


def test_default_seed_gives_the_expected_verdicts():
    # `qncalc verify-paper` runs at seed 2024; the golden report pins seed 7
    expected = json.loads(ROOT.joinpath("bench", "expected_verdicts.json").read_text())
    rep = run_all(seed=2024).to_json()
    assert {s["name"]: {c["name"]: c["status"] for c in s["checks"]}
            for s in rep["suites"]} == expected


def test_exit_code_logic():
    rep = SuiteReport(preset="x")
    from qncalc.reports import Suite
    rep.suites.append(Suite("s", [Check("a", status="pass")]))
    assert rep.exit_code() == 0
    assert (rep.overall, rep.has_mismatch) == ("pass", False)
    rep.suites.append(Suite("t", [Check("b", status="mismatch")]))
    assert (rep.overall, rep.has_mismatch) == ("pass", True)
    assert rep.exit_code() == 1
    assert rep.exit_code(allow_mismatch=True) == 0
    rep.suites.append(Suite("u", [Check("c", status="fail")]))
    assert rep.overall == "fail"
    assert rep.exit_code(allow_mismatch=True) == 1


# -- CLI -------------------------------------------------------------------------

def test_cli_list_presets(capsys):
    assert main(["list-presets"]) == 0
    out = capsys.readouterr().out
    assert "glq2" in out and "qplane-right-b0" in out


def test_cli_normalize(capsys):
    assert main(["normalize", "--preset", "glq2", "--expr", "d.a"]) == 0
    assert capsys.readouterr().out.strip() == "D + q^-1 b.c"


def test_cli_normalize_relation_vanishes(capsys):
    assert main(["normalize", "--preset", "glq2",
                 "--expr", "a.b - q b.a"]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_cli_normalize_bad_expression(capsys):
    assert main(["normalize", "--preset", "glq2", "--expr", "a.."]) == 2


def test_cli_normalize_on_a_derived_system(capsys):
    assert main(["normalize", "--preset", "glq2-left-diff", "--expr", "del_a.a"]) == 0
    p = diff_presentation("glq2-left")
    assert capsys.readouterr().out.strip() == str(normalize(Element.word("del_a", "a"), p))


def test_cli_normalize_rejects_two_differentials_on_a_derived_system(capsys):
    # a -diff system has no rule between two differentials
    assert main(["normalize", "--preset", "qplane-left-b0-diff",
                 "--expr", "a.del_a + del_a.del_a"]) == 2
    assert capsys.readouterr().err == (
        "error: qplane-left-b0-diff presents the 1-forms only, and del_a.del_a has "
        "form degree 2; normalize it in form mode (--preset qplane-left-b0)\n")


def test_cli_exports_a_derived_system(capsys):
    assert main(["export-preset", "--preset", "slq2-left-diff"]) == 0
    rules = parse_presentation(capsys.readouterr().out).rules
    assert [(r.lhs, r.rhs) for r in rules] \
        == [(r.lhs, r.rhs) for r in diff_presentation("slq2-left").rules]


def test_cli_check_writes_valid_report(tmp_path, capsys):
    path = tmp_path / "r.json"
    code = main(["check", "--preset", "slq2-left", "--suite", "vector-fields",
                 "--report", str(path)])
    assert code == 0
    jsonschema.validate(json.loads(path.read_text()), SCHEMA)


def test_cli_check_mismatch_exit_codes(tmp_path):
    args = ["check", "--preset", "glq2-right", "--suite", "regression-5.22",
            "--report", str(tmp_path / "m.json")]
    assert main(args) == 1
    assert main(args + ["--allow-mismatch"]) == 0


def test_cli_report_dir_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("QNCALC_REPORT_DIR", str(tmp_path))
    assert main(["check", "--preset", "glq2", "--suite", "ybe"]) == 0
    written = list(tmp_path.glob("*.json"))
    assert len(written) == 1
    jsonschema.validate(json.loads(written[0].read_text()), SCHEMA)


def test_cli_check_user_file(tmp_path):
    src = Path(__file__).resolve().parent.parent / "docs" / "examples" / "wz-plane.preset"
    f = tmp_path / "plane.preset"
    f.write_text(src.read_text())
    assert main(["check", "--file", str(f), "--suite", "confluence"]) == 0


@pytest.mark.parametrize("name", ["glq2-left", "glq2"])
def test_cli_check_user_file_with_builtin_name(tmp_path, name):
    # preset-specific checks follow the built-in object, not its name
    src = Path(__file__).resolve().parent.parent / "docs" / "examples" / "wz-plane.preset"
    f = tmp_path / "plane.preset"
    f.write_text(src.read_text().replace("name wz-plane", f"name {name}"))
    report = tmp_path / "r.json"
    assert main(["check", "--file", str(f), "--report", str(report)]) == 0
    suites = json.loads(report.read_text())["suites"]
    checks = suites[0]["checks"]
    assert [c["name"] for c in checks] == [
        f"validate[{name}]", f"local-confluence[{name}]",
        f"strategy-independence[{name}]"]
    assert "50 random words" in checks[-1]["details"]
    assert [s["name"] for s in suites] == list(SUITE_NAMES)
    ran = {s["name"] for s in suites
           if any(c["status"] != "skipped" for c in s["checks"])}
    assert ran == {"confluence", "classical-limit"}
    assert [c["name"] for c in suites[SUITE_NAMES.index("classical-limit")]["checks"]] \
        == [f"classical-limit[{name}]"]
    assert all(c["status"] in ("pass", "skipped") for s in suites for c in s["checks"])


def test_user_copy_of_a_calculus_preset_gets_no_per_preset_data():
    p = parse_presentation("name glq2-left\nextends glq2-left\n")
    rep = run_suite(SuiteConfig(p, suites=("confluence", "delta2", "qtrace",
                                           "vector-fields"), max_degree=2))
    names = {c.name: c.status for s in rep.suites for c in s.checks}
    assert names == {
        "validate[glq2-left]": "pass", "local-confluence[glq2-left]": "pass",
        "strategy-independence[glq2-left]": "pass",
        "nilpotent[glq2-left]": "pass", "delta-respects-rules[glq2-left]": "pass",
        "form-diff-roundtrip[glq2-left]": "pass",
        "qtrace[glq2-left]": "skipped", "vector-fields[glq2-left]": "skipped"}


_CONFLUENCE = ("validate", "local-confluence", "strategy-independence")


@pytest.mark.parametrize("stem, passing", [
    ("q-line", _CONFLUENCE + ("nilpotent", "delta-respects-rules",
                              "form-diff-roundtrip", "classical-limit")),
    ("wz-plane", _CONFLUENCE + ("classical-limit",)),
])
def test_every_suite_on_the_example_files(tmp_path, stem, passing):
    report = tmp_path / "r.json"
    assert main(["check", "--file", str(EXAMPLES / f"{stem}.preset"),
                 "--report", str(report)]) == 0
    checks = [c for s in json.loads(report.read_text())["suites"] for c in s["checks"]]
    want = [f"{n}[{stem}]" for n in passing]
    if stem == "q-line":                        # the example with a calculus
        want.append(f"classical-limit[{stem}-diff]")
    assert [c["name"] for c in checks if c["status"] == "pass"] == want
    assert all(c["status"] == "skipped" for c in checks if c["name"] not in want)


def test_underivable_differential_system_is_a_failed_check():
    # without its form line, q-line's derivatives cannot be rewritten over del_x
    text = EXAMPLES.joinpath("q-line.preset").read_text()
    p = parse_presentation(text.replace("form th -> xi.del_x", ""))
    rep = run_suite(SuiteConfig(p, suites=("classical-limit",)))
    checks = rep.suites[0].checks
    assert [(c.name, c.status) for c in checks] == [
        ("classical-limit[q-line]", "pass"), ("classical-limit[q-line-diff]", "fail")]
    assert checks[1].residual == "form th has no form line"


def test_a_form_off_its_slot_fails_the_derived_system_and_names_its_word():
    # without th.x -> q^2 x.th, d(x).x keeps its form inside x.th.x
    text = EXAMPLES.joinpath("q-line.preset").read_text()
    p = parse_presentation(text.replace("rule th.x -> q^2 x.th  @commutation", ""))
    rep = run_suite(SuiteConfig(p, suites=("classical-limit",)))
    checks = rep.suites[0].checks
    assert [(c.name, c.status) for c in checks] == [
        ("classical-limit[q-line]", "pass"), ("classical-limit[q-line-diff]", "fail")]
    assert checks[1].residual == "expected one form, rightmost, in x.th.x"


def test_odd_generator_without_a_form_line_fails_the_roundtrip(tmp_path, capsys):
    # the roundtrip covers every odd generator, so a formless calculus
    # cannot pass it with zero checks
    f = tmp_path / "q-line.preset"
    f.write_text(EXAMPLES.joinpath("q-line.preset").read_text()
                 .replace("form th -> xi.del_x", ""))
    report = tmp_path / "r.json"
    assert main(["check", "--file", str(f), "--suite", "delta2",
                 "--report", str(report)]) == 1
    assert ("[FAIL] delta2: form-diff-roundtrip[q-line]  "
            "(1 of 1 failed; first: form-roundtrip[q-line][th])") in capsys.readouterr().out
    [suite] = json.loads(report.read_text())["suites"]
    checks = suite["checks"]
    assert [(c["name"], c["status"]) for c in checks] == [
        ("nilpotent[q-line]", "pass"), ("delta-respects-rules[q-line]", "pass"),
        ("form-diff-roundtrip[q-line]", "fail")]
    assert checks[-1]["residual"] == "form th has no form line"


def test_broken_coproduct_names_its_first_failing_entry():
    # without D.b -> b.D the coproduct of D.a and D.d no longer vanishes
    p = preset_without_rule(preset("glq2"), "D.b")
    [suite] = run_suite(SuiteConfig(p, suites=("hopf",))).suites
    assert [(c.name, c.status) for c in suite.checks] == [
        ("qdet-normal-form", "pass"), ("qdet-central", "fail"),
        ("levi-civita", "pass"), ("coproduct+counit", "fail"), ("antipode", "pass")]
    check = suite.checks[3]
    assert check.details == "2 of 33 failed; first: coproduct[D.a]"
    assert check.residual == str(dict(coproduct_residuals(p))["coproduct[D.a]"])
    assert check.residual == "D1.b1.c2.D2 - b1.D1.c2.D2"
    central = suite.checks[1]
    assert (central.details, central.residual) == ("1 of 4 failed; first: b", "D.b - b.D")


def glq2_with(name, old, new):
    """A user copy of ``glq2`` named ``name`` with one rule line changed."""
    text = export_presentation(preset("glq2"))
    assert old in text
    return parse_presentation(text.replace("name glq2\n", f"name {name}\n").replace(old, new))


def only_check(p, suite, name):
    [check] = [c for s in run_suite(SuiteConfig(p, suites=(suite,))).suites
               for c in s.checks if c.name == name]
    return check


def test_a_failing_rtt_line_names_its_component():
    p = glq2_with("glq2-ab", "rule a.b -> q b.a", "rule a.b -> q^2 b.a")
    check = only_check(p, "rtt", "rtt[glq2-ab]")
    assert (check.status, check.residual) == ("fail", "(q - 1) b.a")
    assert check.details == "2 of 16 failed; first: component (1, 1, 1, 2)"


def test_a_pole_at_one_fails_the_classical_limit_on_its_rule():
    p = glq2_with("glq2-pole", "rule c.b -> b.c", "rule c.b -> (q/(q - 1)) b.c")
    check = only_check(p, "classical-limit", "classical-limit[glq2-pole]")
    assert (check.status, check.residual) == ("fail", "pole at q = 1")
    assert check.details == f"1 of {len(p.rules)} failed; first: c.b"


SUPER3 = """name super3
gen x parity even
gen f g parity odd
rule f.x -> x.f
rule g.x -> x.g
rule g.f -> -f.g
rule f.f -> 0
rule g.g -> 0
"""


def test_the_classical_limit_of_a_longer_rule_signs_its_reverse():
    # g.f.x = x.g.f = -x.f.g at q = 1: reversing swaps the one odd pair
    p = parse_presentation(SUPER3 + "rule g.f.x -> -x.f.g\n")
    check = only_check(p, "classical-limit", "classical-limit[super3]")
    assert (check.status, check.details) == (
        "pass", "all rules (anti)commute at q=1: {'commutator': 2, 'anticommutator': 4}")


def test_a_longer_rule_with_the_wrong_sign_fails_the_classical_limit():
    # listed first, g.f.x -> x.f.g rewrites g.f.x + x.f.g to 2 x.f.g
    p = parse_presentation(SUPER3.replace("rule f.x", "rule g.f.x -> x.f.g\nrule f.x"))
    check = only_check(p, "classical-limit", "classical-limit[super3]")
    assert (check.status, check.residual) == ("fail", "2 x.f.g")
    assert check.details == "1 of 6 failed; first: g.f.x"


def drop_a_term(monkeypatch):
    """Make every random reduction route lose the first term of its
    result; return the patched normalizer."""
    witness = suites.random_strategy_normalize

    def lossy(x, p, seed):
        return Element(dict(list(witness(x, p, seed).items())[1:]))
    monkeypatch.setattr(suites, "random_strategy_normalize", lossy)
    return lossy


def test_a_failing_route_names_its_word_and_seed(monkeypatch):
    lossy = drop_a_term(monkeypatch)
    p = preset("glq2")
    check = only_check(p, "confluence", "strategy-independence[glq2]")
    seed = SuiteConfig(p).seed      # every route fails, so the first word drawn
    rng = random.Random(seed)
    letters = [g.name for g in p.generators]
    word = Element.word(*(rng.choice(letters) for _ in range(rng.randint(1, 4))))
    assert check.status == "fail"
    assert check.details == f"1000 of 1000 failed; first: {word} at seed {seed}"
    assert check.residual == str(lossy(word, p, seed) - normalize(word, p))


def test_a_failing_cubic_chain_names_its_word_and_seed(monkeypatch):
    lossy = drop_a_term(monkeypatch)
    p = preset("glq2-left")
    tag, word, expected = printed("cubic-chain", p.parity)[0]
    check = only_check(p, "confluence", tag)
    assert check.status == "fail"
    assert check.details == f"5 of 6 failed; first: {word} at seed 0"
    assert check.residual == str(lossy(word, p, 0) - expected)


def test_the_perturbed_r_control_says_why_it_fails(monkeypatch):
    # a negative control whose R solves Yang-Baxter fails, and says so
    monkeypatch.setattr(rmatrix, "perturbed_r", rmatrix.standard_r)
    check = only_check(preset("glq2"), "ybe", "ybe[perturbed-R nonzero]")
    assert (check.status, check.details) == ("fail", "all 64 residual entries zero")


@pytest.mark.parametrize("path", ["missing.preset", "."])
def test_cli_check_unreadable_file(tmp_path, capsys, path):
    assert main(["check", "--file", str(tmp_path / path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_non_utf8_file_is_an_error_not_a_traceback(tmp_path, capsys):
    f = tmp_path / "latin1.preset"
    f.write_bytes(b"gen x parity even\n# \xff\n")
    assert main(["normalize", "--file", str(f), "--expr", "x"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "can't decode byte 0xff" in err


def test_cli_reads_a_file_as_utf8_whatever_the_locale(tmp_path):
    f = tmp_path / "theta.preset"
    f.write_bytes("gen x parity even  # \u03b8\n".encode("utf-8"))
    env = dict(_subprocess_env(), LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
    proc = subprocess.run([sys.executable, "-m", "qncalc", "normalize", "--file", str(f),
                           "--expr", "x.x"], capture_output=True, text=True, env=env,
                          timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "x.x\n", "")


@pytest.mark.parametrize("command", ["check", "verify-paper"])
@pytest.mark.parametrize("value", ["-1", "two"])
def test_cli_rejects_a_negative_max_degree(command, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--max-degree", value])
    assert exc.value.code == 2
    assert f"argument --max-degree: expected 0 or a positive integer, not {value!r}" \
        in capsys.readouterr().err


@pytest.mark.parametrize("max_degree, recorded", [(-1, 3), (0, 3), (2, 2)])
def test_run_all_records_the_degree_as_run_suite_does(monkeypatch, max_degree,
                                                      recorded):
    monkeypatch.setattr("qncalc.suites.SUITE_NAMES", ())     # no checks to run
    assert run_all(max_degree=max_degree).max_degree == recorded
    cfg = SuiteConfig(preset("glq2"), suites=("ybe",), max_degree=max_degree)
    assert run_suite(cfg).max_degree == recorded


# -- run_all across processes -----------------------------------------------------

def _zeroed(report):
    out = report.to_json()
    for s in out["suites"]:
        for c in s["checks"]:
            c["ms"] = 0.0
    return json.dumps(out)


def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("seed", [7, 2024])
def test_run_all_reports_the_same_from_one_process_and_from_two(monkeypatch, seed):
    run = suites._run

    def stamped(name, cfg):             # ms: the process that ran the check
        checks = run(name, cfg)
        for c in checks:
            c.ms = os.getpid()
        return checks

    monkeypatch.setattr(suites, "_run", stamped)
    _cpus(monkeypatch, 2)
    forked = run_all(seed=seed)
    _no_child_left()
    assert {c.ms for c in forked.all_checks()} - {os.getpid()}
    _cpus(monkeypatch, 1)
    serial = run_all(seed=seed)
    assert {c.ms for c in serial.all_checks()} == {os.getpid()}
    assert _zeroed(serial) == _zeroed(forked)


def _failing_confluence(monkeypatch, pid, exc):
    """``confluence`` raises ``exc(pid of the process)`` on preset ``pid``."""
    confluence = suites.SUITES["confluence"]

    def suite(cfg):
        if cfg.presentation.name == pid:
            raise exc(os.getpid())
        return confluence(cfg)

    monkeypatch.setitem(suites.SUITES, "confluence", suite)


@pytest.mark.parametrize("where", ["glq2", "glq2-left"])    # the parent's, a child's
def test_an_exceeded_budget_in_any_process_fails_verify_paper(monkeypatch, capsys,
                                                              where):
    _failing_confluence(monkeypatch, where, lambda pid: StepBudgetExceededError(
        f"step budget exceeded in process {pid}"))
    _cpus(monkeypatch, 2)
    assert main(["verify-paper"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: step budget exceeded in process ")
    assert (int(err.split()[-1]) == os.getpid()) == (where == "glq2")
    _no_child_left()


class _TwoArgumentError(Exception):     # it pickles, but does not unpickle
    def __init__(self, what, where):
        super().__init__(f"{what} in process {where}")


@pytest.mark.parametrize("unpicklable", ["local class", "two-argument init"])
def test_a_child_exception_that_does_not_pickle_arrives_as_its_traceback(
        monkeypatch, unpicklable):
    class LocalError(Exception):
        pass

    _failing_confluence(monkeypatch, "glq2-left", LocalError if unpicklable == "local class"
                        else lambda pid: _TwoArgumentError("lost", pid))
    _cpus(monkeypatch, 2)
    with pytest.raises(RuntimeError) as info:
        run_all()
    text = str(info.value)
    assert text.startswith("a suite process failed:\nTraceback (most recent call last):")
    assert "Error: " in text.splitlines()[-1]
    assert int(text.split()[-1]) != os.getpid()
    _no_child_left()


@pytest.mark.parametrize("why", ["no os.fork", "no CPU affinity", "threads"])
def test_run_all_does_not_fork_where_it_cannot_or_should_not(monkeypatch, why):
    def fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", fork)
    _cpus(monkeypatch, 2)
    if why == "no os.fork":
        monkeypatch.delattr(os, "fork")
    elif why == "no CPU affinity":
        monkeypatch.delattr(os, "sched_getaffinity")
    elif why == "threads":              # Python 3.12 warns on forking with threads
        monkeypatch.setattr(threading, "active_count", lambda: 2)
    monkeypatch.setattr(suites, "SUITE_NAMES", ("rtt",))
    counts = run_all().counts()
    assert counts["pass"] > 0 and counts["fail"] == 0


def _subprocess_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def test_python_m_qncalc_runs_the_cli():
    proc = subprocess.run([sys.executable, "-m", "qncalc", "list-presets"],
                          capture_output=True, text=True, env=_subprocess_env(),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[0] == "glq2" and "glq2-left-diff" in proc.stdout


@pytest.mark.parametrize("argv", [["list-presets"],
                                  ["export-preset", "--preset", "glq2-left"]])
def test_cli_closed_stdout_ends_quietly(argv):
    env = _subprocess_env()
    read, write = os.pipe()
    os.close(read)                  # the reader is gone before the first write
    try:
        proc = subprocess.run([sys.executable, "-m", "qncalc.cli", *argv],
                              stdout=write, stderr=subprocess.PIPE, env=env,
                              timeout=120)
    finally:
        os.close(write)
    assert proc.stderr == b""
    assert proc.returncode == 1


def test_cli_export_roundtrip(tmp_path, capsys):
    out = tmp_path / "glq2.preset"
    assert main(["export-preset", "--preset", "glq2", "--out", str(out)]) == 0
    text = out.read_text()
    assert "rule a.d -> D + q b.c" in text


WITNESS_RUN = r"""
import itertools, json, sys
import qncalc.suites
from qncalc import calculus, ncalg, presentations

def report():
    rep = qncalc.suites.run_all(seed=7).to_json()
    for s in rep["suites"]:
        for c in s["checks"]:
            c["ms"] = 0.0
    return rep

cached_report = report()
calls = {"witness": 0, "cached": 0}
seeds = itertools.count()
cached, witness = ncalg.normalize, ncalg.random_strategy_normalize
word_normal_form = ncalg.Presentation.word_normal_form

def judge(x, p, budget=ncalg.DEFAULT_STEP_BUDGET):
    calls["witness"] += 1
    return witness(x, p, seed=next(seeds), budget=budget)

def counted(self, *args):
    calls["cached"] += 1
    return word_normal_form(self, *args)

rebound = sorted(f"{name}.{attr}" for name, mod in list(sys.modules.items())
                 if name.split(".")[0] == "qncalc"
                 for attr, value in vars(mod).items() if value is cached)
for ref in rebound:
    name, attr = ref.rsplit(".", 1)
    setattr(sys.modules[name], attr, judge)
ncalg.Presentation.word_normal_form = counted
presentations.preset.cache_clear()
calculus._derived.cache_clear()
replay = report()
print(json.dumps({"same": replay == cached_report, "rebound": rebound, "calls": calls,
                  "counts": [cached_report["counts"], replay["counts"]]}))
"""

# a fault in the cached kernel, planted before the cached report is taken:
# every multi-term normal form that ``_fill`` caches loses its last term
PLANTED_FAULT = r"""
import itertools
from qncalc import ncalg

fill = ncalg.Presentation._fill

def faulty_fill(self, word, steps):
    size = len(self._nf_cache)
    fill(self, word, steps)
    added = len(self._nf_cache) - size
    for nf in itertools.islice(reversed(self._nf_cache.values()), added):
        if len(nf.words) > 1:
            nf.words, nf.coefs = nf.words[:-1], nf.coefs[:-1]

ncalg.Presentation._fill = faulty_fill
"""


def test_the_witness_normalizer_gives_the_same_report():
    # every normal form of the report is taken again by the random-strategy
    # witness, which shares no code with the cached normalizer, at a fresh
    # seed per call; strategy-independence then compares the witness with
    # itself.  A subprocess, because emptying the preset cache here would
    # make the presets other tests hold stop counting as built-ins.
    proc = subprocess.run([sys.executable, "-c", WITNESS_RUN], capture_output=True,
                          text=True, env=_subprocess_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert "qncalc.ncalg.normalize" in out["rebound"]
    assert out["calls"]["witness"] > 0 and out["calls"]["cached"] == 0
    assert out["same"]


def test_the_witness_replay_catches_a_fault_in_the_cached_normalizer():
    # the replay judges the report afresh, so a kernel fault that changes
    # verdicts shows as a disagreement, and the replay keeps the golden counts
    proc = subprocess.run([sys.executable, "-c", PLANTED_FAULT + WITNESS_RUN],
                          capture_output=True, text=True, env=_subprocess_env(),
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    golden = json.loads((DATA / "verify_paper_seed7.json").read_text())["counts"]
    faulty, replay = out["counts"]
    assert not out["same"] and out["calls"]["cached"] == 0
    assert faulty != golden and faulty["fail"] > 0
    assert replay == golden
