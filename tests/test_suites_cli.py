"""Suite runner, JSON reports, schema validation, CLI exit codes."""

import json
from pathlib import Path

import jsonschema
import pytest

from qncalc.cli import main
from qncalc.reports import Check, SuiteReport
from qncalc.suites import SUITE_NAMES, SuiteConfig, run_all, run_suite

SCHEMA = json.loads(Path(__file__).resolve().parent.parent.joinpath(
    "docs", "report-schema.json").read_text())
DATA = Path(__file__).resolve().parent / "data"


def test_suite_names_stable():
    assert set(SUITE_NAMES) == {
        "confluence", "rtt", "ybe", "hopf", "delta2", "qtrace",
        "vector-fields", "reductions", "regression-3.24", "regression-4.4",
        "regression-5.22", "interchange", "classical-limit", "conjugation",
    }


def test_run_suite_single():
    rep = run_suite(SuiteConfig(preset="glq2", suites=("ybe", "hopf")))
    assert rep.overall == "pass"
    jsonschema.validate(rep.to_json(), SCHEMA)


def test_skipped_status_for_inapplicable_suite():
    rep = run_suite(SuiteConfig(preset="qplane-left-b0", suites=("qtrace",)))
    checks = rep.suites[0].checks
    assert checks and all(c.status == "skipped" for c in checks)
    assert rep.overall == "pass"


def test_unknown_suite_rejected():
    with pytest.raises(KeyError):
        run_suite(SuiteConfig(preset="glq2", suites=("nope",)))


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
    a = run_suite(SuiteConfig(preset="glq2", suites=("confluence",), seed=7))
    b = run_suite(SuiteConfig(preset="glq2", suites=("confluence",), seed=7))
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


def test_exit_code_logic():
    rep = SuiteReport(preset="x")
    from qncalc.reports import Suite
    rep.suites.append(Suite("s", [Check("a", status="pass")]))
    assert rep.exit_code() == 0
    rep.suites.append(Suite("t", [Check("b", status="mismatch")]))
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
    assert main(["check", "--file", str(f), "--suite", "confluence",
                 "--report", str(report)]) == 0
    checks = json.loads(report.read_text())["suites"][0]["checks"]
    assert [c["name"] for c in checks] == [
        f"validate[{name}]", f"local-confluence[{name}]",
        f"strategy-independence[{name}]"]
    assert "50 random words" in checks[-1]["details"]


def test_cli_export_roundtrip(tmp_path, capsys):
    out = tmp_path / "glq2.preset"
    assert main(["export-preset", "--preset", "glq2", "--out", str(out)]) == 0
    text = out.read_text()
    assert "rule a.d -> D + q b.c" in text
