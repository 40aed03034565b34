"""The record types: constructors, defaults, equality, immutability, repr,
and an import of ``qncalc`` that loads neither ``dataclasses`` nor ``inspect``
nor the suite runner and its report records."""

import copy
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

from qncalc.calculus import DiffStructure
from qncalc.ncalg import (
    ConfluenceReport,
    CriticalPair,
    Element,
    Generator,
    RewriteRule,
    TerminationOrder,
    ValidationIssue,
    ValidationReport,
)
from qncalc.presentations import Morphism, preset
from qncalc.reports import Check, Suite, SuiteReport
from qncalc.suites import SuiteConfig

ROOT = Path(__file__).resolve().parent.parent
x = Element.word("x")

# (type, field names, values of the required fields, defaults of the
# others, immutable)
RECORDS = [
    (Generator, "name parity", ("a", 0), (), True),
    (RewriteRule, "lhs rhs provenance", (("b", "a"), x), ("",), True),
    (TerminationOrder, "kind form_side", (), ("deglex", "right"), True),
    (ValidationIssue, "rule kind message", ("r1", "orientation", "not oriented"), (),
     True),
    (ValidationReport, "presentation issues", ("glq2", []), (), True),
    (CriticalPair, "rule1 rule2 word branch1 branch2", ("r1", "r2", ("a", "b", "c"), x, x),
     (), True),
    (ConfluenceReport, "presentation pairs", ("glq2", []), (), True),
    (Check, "name paper_ref status residual details ms", ("c",),
     ("", "pass", None, "", 0.0), False),
    (Suite, "name checks", ("s",), ([],), False),
    (SuiteReport, "preset suites seed max_degree conventions", ("all",), ([], 0, 3, {}),
     False),
    (DiffStructure, "side images coords forms dependencies", ("left", {"x": x}),
     ((), {}, ()), True),
    (Morphism, "name source target images scalar_fn", ("m", "glq2", preset("glq2"),
                                                       {"a": x}), (None,), True),
    (SuiteConfig, "presentation suites max_degree seed", (preset("glq2"),), ((), 0, 2024),
     True),
]


@pytest.mark.parametrize("cls, names, required, defaults, frozen", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_record_contract(cls, names, required, defaults, frozen):
    fields, values = names.split(), required + defaults
    get = lambda record: tuple(getattr(record, f) for f in fields)
    r = cls(*required)
    assert get(r) == values
    assert cls(**dict(zip(fields, required))) == r
    assert cls(*values) == r
    assert cls(*values[:-1], object()) != r
    with pytest.raises(TypeError):
        cls(*values, None)
    assert copy.copy(r) == r
    text = repr(r)
    assert text.startswith(f"{cls.__name__}(")
    assert all(f"{f}=" in text for f in fields)
    marker = object()
    if frozen:
        with pytest.raises(AttributeError):
            setattr(r, fields[0], marker)
        assert get(r) == values
    else:                       # Check's last field is ms, which suites._run sets
        setattr(r, fields[-1], marker)
        assert getattr(r, fields[-1]) is marker


def test_mutable_defaults_are_fresh_per_record():
    assert Suite("s").checks is not Suite("s").checks
    a, b = SuiteReport("all"), SuiteReport("all")
    assert a.suites is not b.suites and a.conventions is not b.conventions
    assert DiffStructure("left", {}).forms is not DiffStructure("left", {}).forms


def test_validation_errors():
    with pytest.raises(ValueError, match="bad side 'up'"):
        DiffStructure(side="up", images={})
    with pytest.raises(ValueError, match="bad status 'maybe'"):
        Check("c", status="maybe")


def test_morphism_apply_is_a_plain_class_attribute():
    # the benchmark's layer trace rebinds it on the class
    assert isinstance(vars(Morphism)["apply"], types.FunctionType)


def test_import_loads_neither_dataclasses_nor_inspect():
    # nor, to read the preset files, importlib.resources and what it loads
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = ("import qncalc, sys; qncalc.preset('glq2'); "
            "print(sorted({'dataclasses', 'inspect', 'tempfile', 'shutil', "
            "'importlib.resources'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_import_loads_the_engine_without_the_suite_runner():
    # a process that only rewrites compiles neither the runner, nor the
    # printed-equation judges, nor the report records and their json; all
    # stay one import away
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = ("import qncalc, sys\n"
            "report = {'json', 'qncalc.reports', 'qncalc.suites', 'qncalc.targets'}\n"
            "for pid in qncalc.PRESET_IDS: qncalc.preset(pid)\n"
            "for pid in qncalc.CALCULUS_PRESETS: qncalc.diff_presentation(pid)\n"
            "print(sorted(report & set(sys.modules)))\n"
            "from qncalc.suites import run_all\n"
            "print(sorted(report & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == [
        "[]", "['json', 'qncalc.reports', 'qncalc.suites', 'qncalc.targets']", ""]


# -- Check.vanish, the one judge of a family of identities ----------------------

def test_vanish_passes_on_zero_residuals_of_every_kind():
    from qncalc.qfield import ZERO
    pairs = [("e", Element.zero()), (("a", "b"), ZERO)]
    assert Check.vanish("f", "eq-1", pairs) == Check("f", "eq-1", details="2 checks")
    assert Check.vanish("f", "eq-1", pairs, details="") == Check("f", "eq-1")
    assert Check.vanish("f", "eq-1", iter(pairs), details="all vanish").details == "all vanish"
    assert Check.vanish("f", "eq-1", []).details == "0 checks"


def test_vanish_names_the_first_failing_entry_and_its_residual():
    from qncalc.qfield import Scalar
    y = Element.term(Scalar.q_power(2), ("y", "x"))
    pairs = [("ok", Element.zero()), (("x", "y"), y), ("later", x), ("why", "no image")]
    c = Check.vanish("f", "eq-1", pairs, details="never shown")
    assert c == Check("f", "eq-1", "fail", str(y), "3 of 4 failed; first: x.y")
    # a scalar residual, a string residual and the empty word as label
    assert Check.vanish("f", "", [("s", Scalar.q_power(1) - 1)]).residual == "q - 1"
    assert Check.vanish("f", "", [((), "pole at q = 1")]) == Check(
        "f", "", "fail", "pole at q = 1", "1 of 1 failed; first: 1")
