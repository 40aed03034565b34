"""Structured check results and the JSON suite report.

The report schema (shipped in ``docs/report-schema.json``) is:

    {version, preset, seed, max_degree, conventions,
     suites: [{name, checks: [{name, paper_ref, status, residual, details, ms}]}],
     overall, counts}

``status`` is one of ``pass``, ``fail``, ``mismatch``, ``skipped``;
``mismatch`` is reserved for printed-equation regression targets where the
engine-derived relation disagrees with the printed one (the derived
correction is attached in ``details``).  ``overall`` is ``pass`` iff no
check failed; mismatches are counted separately and drive the process
exit code unless explicitly allowed.

:meth:`Check.vanish` writes each line saying a family of identities holds;
failing, it reads "k of n failed; first: <label>" with that residual.
"""

from __future__ import annotations

import json

__all__ = ["Check", "Suite", "SuiteReport", "REPORT_VERSION"]

REPORT_VERSION = "1"

_STATUSES = ("pass", "fail", "mismatch", "skipped")


class Record:
    """Equality and a repr over the ``__slots__`` of a record class.

    The mutable records, filled in or timed after they are built, subclass
    it with an explicit ``__init__``; the others are ``typing.NamedTuple``s.
    """

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self.__slots__)

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Check(Record):
    __slots__ = ("name", "paper_ref", "status", "residual", "details", "ms")

    def __init__(self, name: str, paper_ref: str = "", status: str = "pass",
                 residual: str | None = None, details: str = "", ms: float = 0.0):
        if status not in _STATUSES:
            raise ValueError(f"bad status {status!r}")
        self.name, self.paper_ref, self.status = name, paper_ref, status
        self.residual, self.details, self.ms = residual, details, ms

    def to_json(self):
        return {
            "name": self.name,
            "paper_ref": self.paper_ref,
            "status": self.status,
            "residual": self.residual,
            "details": self.details,
            "ms": round(self.ms, 3),
        }

    @staticmethod
    def of(ok: bool, name, paper_ref="", residual=None, details=""):
        return Check(name, paper_ref, "pass" if ok else "fail",
                     None if ok else residual, details)

    @staticmethod
    def vanish(name, paper_ref, residuals, details=None) -> "Check":
        """The line for a family of (label, residual) pairs, read once: it
        passes iff every residual (an Element or a Scalar, or a string
        saying why its entry fails) is zero.  A word-tuple label is joined
        only when reported; ``details=None`` means "n checks"."""
        n, bad, first = 0, 0, None
        for label, r in residuals:
            n += 1
            if isinstance(r, str) or not r.is_zero:
                bad += 1
                first = first or (label, r)
        if first is None:
            return Check(name, paper_ref, details=f"{n} checks" if details is None else details)
        label, r = first
        label = (".".join(label) or "1") if isinstance(label, tuple) else label
        return Check(name, paper_ref, "fail", str(r), f"{bad} of {n} failed; first: {label}")


class Suite(Record):
    __slots__ = ("name", "checks")

    def __init__(self, name: str, checks: list | None = None):
        self.name = name
        self.checks = [] if checks is None else checks

    def to_json(self):
        return {"name": self.name, "checks": [c.to_json() for c in self.checks]}


class SuiteReport(Record):
    __slots__ = ("preset", "suites", "seed", "max_degree", "conventions")

    def __init__(self, preset: str, suites: list | None = None, seed: int = 0,
                 max_degree: int = 3, conventions: dict | None = None):
        self.preset, self.seed, self.max_degree = preset, seed, max_degree
        self.suites = [] if suites is None else suites
        self.conventions = {} if conventions is None else conventions

    def all_checks(self):
        for s in self.suites:
            yield from s.checks

    def counts(self):
        out = {s: 0 for s in _STATUSES}
        for c in self.all_checks():
            out[c.status] += 1
        return out

    @property
    def overall(self) -> str:
        return "fail" if self.counts()["fail"] else "pass"

    @property
    def has_mismatch(self) -> bool:
        return self.counts()["mismatch"] > 0

    def exit_code(self, allow_mismatch: bool = False) -> int:
        counts = self.counts()
        return 1 if counts["fail"] or (counts["mismatch"] and not allow_mismatch) else 0

    def to_json(self):
        return {
            "version": REPORT_VERSION,
            "preset": self.preset,
            "seed": self.seed,
            "max_degree": self.max_degree,
            "conventions": self.conventions,
            "suites": [s.to_json() for s in self.suites],
            "overall": self.overall,
            "counts": self.counts(),
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=False)
