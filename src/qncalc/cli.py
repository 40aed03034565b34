"""Command-line interface.

Subcommands:

* ``list-presets``   - built-in presentation ids and sizes
* ``normalize``      - normal form of an expression under a preset/file
* ``check``          - run suites against one preset (or a DSL file)
* ``verify-paper``   - the full suite-by-preset verification matrix
* ``export-preset``  - serialize a built-in preset to DSL text

Reports are JSON (schema in ``docs/report-schema.json``).  ``--report``
writes to the given path; a relative path is resolved against
``$QNCALC_REPORT_DIR`` when that is set.  Exit code 0 means every check
passed (mismatching printed-equation regressions count as failures
unless ``--allow-mismatch`` is given).  Bad input, an unreadable file
and an exceeded step budget print ``error: ...`` and exit 2; a closed
stdout (``qncalc list-presets | head -1``) ends the command quietly.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .calculus import CALCULUS_PRESETS, diff_presentation
from .dsl import DslError, export_presentation, parse_expression, parse_presentation
from .ncalg import StepBudgetExceededError, normalize
from .presentations import PRESET_IDS, preset
from .suites import SUITE_NAMES, SuiteConfig, run_all, run_suite

REPORT_DIR_ENV = "QNCALC_REPORT_DIR"


def _resolve_presentation(args):
    """The presentation named on the command line."""
    if getattr(args, "file", None):
        return parse_presentation(Path(args.file).read_text(encoding="utf-8"))
    pid = getattr(args, "preset", None) or "glq2"
    return diff_presentation(pid) if pid.endswith("-diff") else preset(pid)


def _report_path(args, stem):
    """Where ``_emit`` writes the report, or None; an absolute ``--report``
    overrides ``$QNCALC_REPORT_DIR``."""
    base = os.environ.get(REPORT_DIR_ENV)
    if base or args.report:
        return Path(base or "", args.report or f"{stem}.json")
    return None


def _emit(report, args, stem) -> int:
    path = _report_path(args, stem)
    if path is not None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(report.dumps() + "\n")
        print(f"report written to {path}")
    counts = report.counts()
    for suite in report.suites:
        for c in suite.checks:
            marker = {"pass": "ok  ", "fail": "FAIL", "mismatch": "MISM",
                      "skipped": "skip"}[c.status]
            print(f"  [{marker}] {suite.name}: {c.name}"
                  + (f"  ({c.details})" if c.status != "pass" and c.details else ""))
    print(f"overall: {report.overall}  "
          f"(pass {counts['pass']}, fail {counts['fail']}, "
          f"mismatch {counts['mismatch']}, skipped {counts['skipped']})")
    return report.exit_code(allow_mismatch=args.allow_mismatch)


def cmd_list_presets(args) -> int:
    for pid in PRESET_IDS:
        p = preset(pid)
        forms = sum(1 for g in p.generators if g.parity)
        print(f"{pid:18s} {len(p.generators):2d} generators "
              f"({forms} odd), {len(p.rules):3d} rules")
    print("\nderived differential systems (usable with normalize/export):")
    for pid in CALCULUS_PRESETS:
        print(f"  {pid}-diff")
    return 0


def cmd_normalize(args) -> int:
    p = _resolve_presentation(args)
    x = parse_expression(args.expr, p)
    high = [w for w in x.words() if p.form_degree(w) > 1]
    base = p.name.removesuffix("-diff")
    if high and base != p.name and base in CALCULUS_PRESETS and _rules(p) == _rules(
            diff_presentation(base)):
        # a -diff system, built in or exported to a file unchanged, has no
        # rule between two differentials
        raise DslError(f"{p.name} presents the 1-forms only, and {'.'.join(high[0])} "
                       f"has form degree {p.form_degree(high[0])}; normalize it in form "
                       f"mode (--preset {base})")
    print(normalize(x, p))
    return 0


def _rules(p):
    return [(r.lhs, r.rhs) for r in p.rules]


def cmd_check(args) -> int:
    p = _resolve_presentation(args)
    report = run_suite(SuiteConfig(p, suites=tuple(args.suite or ()),
                                   max_degree=args.max_degree, seed=args.seed))
    return _emit(report, args, f"check-{report.preset}")


def cmd_verify_paper(args) -> int:
    report = run_all(seed=args.seed, max_degree=args.max_degree)
    return _emit(report, args, "verify-paper")


def cmd_export_preset(args) -> int:
    p = _resolve_presentation(args)
    text = export_presentation(p)
    if args.out:
        Path(args.out).write_text(text)
        print(f"written to {args.out}")
    else:
        print(text, end="")
    return 0


def _degree(text: str) -> int:
    """A ``--max-degree`` value: 0 (each suite's default) or a positive bound."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected 0 or a positive integer, not {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qncalc",
        description="Exact rewriting checks for q-deformed matrix-group calculi")
    sub = ap.add_subparsers(dest="command", required=True)
    systems = list(PRESET_IDS) + [f"{p}-diff" for p in CALCULUS_PRESETS]
    reporting = argparse.ArgumentParser(add_help=False)
    reporting.add_argument("--max-degree", type=_degree, default=0)
    reporting.add_argument("--seed", type=int, default=2024)
    reporting.add_argument("--report", help="JSON report path")
    reporting.add_argument("--allow-mismatch", action="store_true")

    ap_list = sub.add_parser("list-presets", help="list built-in presentations")
    ap_list.set_defaults(run=cmd_list_presets)

    ap_norm = sub.add_parser("normalize", help="normal form of an expression")
    ap_norm.add_argument("--preset", choices=systems)
    ap_norm.add_argument("--file", help="DSL presentation file")
    ap_norm.add_argument("--expr", required=True)
    ap_norm.set_defaults(run=cmd_normalize)

    ap_check = sub.add_parser("check", parents=[reporting],
                              help="run suites against one preset")
    ap_check.add_argument("--preset", choices=PRESET_IDS)
    ap_check.add_argument("--file", help="DSL presentation file")
    ap_check.add_argument("--suite", action="append", choices=SUITE_NAMES,
                          help="repeatable; default: all suites")
    ap_check.set_defaults(run=cmd_check)

    ap_verify = sub.add_parser("verify-paper", parents=[reporting],
                               help="full verification matrix over all presets")
    ap_verify.set_defaults(run=cmd_verify_paper)

    ap_export = sub.add_parser("export-preset", help="serialize a preset to DSL")
    ap_export.add_argument("--preset", required=True, choices=systems)
    ap_export.add_argument("--out")
    ap_export.set_defaults(run=cmd_export_preset)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.run(args)
        sys.stdout.flush()          # a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:
        # the reader went away (``| head``); send what is still buffered
        # to /dev/null, so that the interpreter's last flush is quiet too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (DslError, StepBudgetExceededError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
