"""Named verification suites and the report-producing runner.

Suites are small callables producing :class:`~qncalc.reports.Check`
lists.  Some check one presentation (confluence, delta2, ...) and apply
where their predicate in ``_APPLIES`` holds; the others check the whole
built-in preset family (reductions, interchange, regressions).  A suite
asked to run where it does not apply reports a single ``skipped`` check.
``run_all`` executes the full matrix, one process per usable CPU.

A line stating that a family of identities vanishes (the Hopf maps, d
on every relation, the reduction routes, ...) is judged by
:meth:`Check.vanish` alone from its producer's (label, residual) pairs;
failing, it reads "k of n failed; first: <label>" with that residual.
"""

from __future__ import annotations

import os
import pickle
import random
import signal
import threading
import time
from typing import Iterator, NamedTuple

from . import rmatrix
from .calculus import (
    CALCULUS_PRESETS,
    COMPOSITION_CONVENTION,
    VECTOR_FIELDS,
    check_vector_algebra,
    delta_respects_rules,
    diff_presentation,
    form_diff_roundtrip_residuals,
    interchange_left_to_right,
    interchange_right_to_left,
    maurer_cartan_residuals,
    nilpotent_residuals,
    reduction_morphisms,
)
from .ncalg import (
    Element,
    Presentation,
    check_local_confluence,
    normalize,
    random_strategy_normalize,
    validate_presentation,
)
from .presentations import (
    PRESET_IDS,
    Morphism,
    antipode_residuals,
    builtin_id,
    coproduct_residuals,
    epsilon_identity_residuals,
    free_presentation,
    preset,
    qdet,
)
from .qfield import PoleAtOneError, Scalar
from .reports import Check, Suite, SuiteReport
from .targets import (
    TRACE_FORM,
    VECTOR_FIELD_PRESETS,
    conjugate_forms_check,
    printed,
    printed_relation_checks,
    qtrace_check,
    wz_plane_checks,
)

__all__ = ["SUITE_NAMES", "SuiteConfig", "run_suite", "run_all", "CONVENTIONS"]

_q = Scalar.q_power

CONVENTIONS = {
    "vector_field_composition": COMPOSITION_CONVENTION,
    "r_inverse": "R(q).R(1/q) = identity with no index transposition",
    "maurer_cartan_sign": "d(form matrix) = +(form.form) entrywise",
    "levi_civita_dagger": "transpose",
    "wz_plane_reading": "a printed plane line is CONFIRMED when it holds in "
                        "at least one coordinate projection (the printed table "
                        "merges the two solutions)",
}


class SuiteConfig(NamedTuple):
    presentation: Presentation
    suites: tuple = ()
    max_degree: int = 0          # 0 = per-suite default
    seed: int = 2024

    def degree(self, default: int) -> int:
        return self.max_degree if self.max_degree > 0 else default


def _skip(name, why) -> list:
    return [Check(name, "", "skipped", details=why)]


# -- confluence ---------------------------------------------------------------

def suite_confluence(cfg: SuiteConfig) -> list:
    p = cfg.presentation
    rep = validate_presentation(p)
    conf = check_local_confluence(p)
    checks = [Check.of(rep.valid, f"validate[{p.name}]", "",
                       residual="; ".join(str(i) for i in rep.issues[:3])),
              Check.of(conf.confluent, f"local-confluence[{p.name}]", "sec-3-diamond",
                       residual=str(conf.unresolved[0].residual) if conf.unresolved else None,
                       details=f"{len(conf.pairs)} critical pairs, "
                               f"{len(conf.unresolved)} unresolved")]
    pid = builtin_id(p)
    if pid == "glq2-left":      # the printed cubic chains, by every route
        checks += [Check.vanish(tag, "sec-3-diamond",
                                [("canonical", normalize(word, p) - expected),
                                 *_routes(word, expected, p, range(5))],
                                details=f"all reduction routes give {expected}")
                   for tag, word, expected in printed("cubic-chain", p.parity)]
    n_words, seeds = (200, 5) if pid == "glq2" else (50, 2)
    rng = random.Random(cfg.seed)
    letters = [g.name for g in p.generators]

    def routes():
        for _ in range(n_words):
            word = Element.word(*(rng.choice(letters) for _ in range(rng.randint(1, 4))))
            yield from _routes(word, normalize(word, p), p, range(cfg.seed, cfg.seed + seeds))

    checks.append(Check.vanish(
        f"strategy-independence[{p.name}]", "", routes(),
        details=f"{n_words} random words x {seeds} seeds agree with the "
                f"canonical strategy (seed {cfg.seed})"))
    return checks


def _routes(word: Element, want: Element, p: Presentation, seeds) -> Iterator:
    """(label, residual) of ``word``'s random reduction route at each seed
    against ``want``, built in full only for a route that disagrees."""
    for s in seeds:
        got = random_strategy_normalize(word, p, seed=s)
        yield ("", Element.zero()) if got == want else (f"{word} at seed {s}", got - want)


# -- R-matrix -----------------------------------------------------------------

def suite_ybe(cfg: SuiteConfig) -> list:
    res = rmatrix.ybe_residual(rmatrix.standard_r())
    res_p = rmatrix.ybe_residual(rmatrix.perturbed_r())
    witness = next(((i, j) for i, row in enumerate(res_p)
                    for j, c in enumerate(row) if not c.is_zero), None)
    conv = rmatrix.r_inverse_conventions()
    return [Check.vanish("ybe[standard-R]", "eq-2.5",
                         ((f"({i}, {j})", c) for i, row in enumerate(res)
                          for j, c in enumerate(row)),
                         details="all 64 residual entries zero; R = "
                                 f"{rmatrix.format_r(rmatrix.standard_r())}"),
            # a negative control: its text must stay true when it fails
            Check.of(witness is not None, "ybe[perturbed-R nonzero]", "eq-2.5",
                     details=f"nonzero residual entry at {witness}: "
                             f"{res_p[witness[0]][witness[1]]}"
                     if witness else "all 64 residual entries zero"),
            Check.of(conv["plain"], "r-inverse[R(q).R(1/q) = 1]", "sec-6",
                     details=f"conventions holding: {[k for k, v in conv.items() if v]}")]


def suite_rtt(cfg: SuiteConfig) -> list:
    p = cfg.presentation
    res = rmatrix.rtt_residual(rmatrix.standard_r(), p)
    checks = [Check.vanish(f"rtt[{p.name}]", "eq-2.4",
                           ((f"component {k}", v) for k, v in res.items()),
                           details="all 16 components vanish")]
    if builtin_id(p) == "glq2":
        free = rmatrix.rtt_residual(rmatrix.standard_r(), free_presentation(*"abcd"))
        comp = free[1, 1, 1, 2]
        expected = Element.term(_q(-1), ("a", "b")) - Element.word("b", "a")
        checks.append(Check.vanish(
            "rtt[free-negative-control]", "eq-2.4",
            [("component (1, 1, 1, 2)", comp - expected)],
            details="free-algebra component (1,1,1,2) is q^-1(ab - q ba)"))
    if p.form_position in ("left", "right"):
        checks.append(Check.vanish(
            f"forms-rtt-compat[{p.name}]",
            "eq-3.2" if p.form_position == "right" else "sec-5",
            rmatrix.forms_rtt_compat(rmatrix.standard_r(), p)))
    return checks


# -- Hopf ----------------------------------------------------------------------

def suite_hopf(cfg: SuiteConfig) -> list:
    p = cfg.presentation
    det = qdet(p)
    det_nf = normalize(det, p)
    return [Check.of(det_nf == Element.word("D"), "qdet-normal-form", "eq-2.7",
                     residual=str(det_nf)),
            Check.vanish("qdet-central", "eq-2.12",
                         ((g, normalize(det * Element.word(g) - Element.word(g) * det, p))
                          for g in "abcd"), details=""),
            Check.vanish("levi-civita", "eq-2.8", epsilon_identity_residuals(p)),
            Check.vanish("coproduct+counit", "eq-2.1", coproduct_residuals(p)),
            Check.vanish("antipode", "eq-2.3", antipode_residuals(p))]


# -- calculus ------------------------------------------------------------------

def suite_delta2(cfg: SuiteConfig) -> list:
    p, degree = cfg.presentation, cfg.degree(4)
    d2 = nilpotent_residuals(p, degree)
    checks = [Check.vanish(f"nilpotent[{p.name}]", "eq-2.15", d2,
                           details=f"d^2 = 0 on {len(d2)} normal words, "
                                   f"degree <= {degree}"),
              Check.vanish(f"delta-respects-rules[{p.name}]", "eq-2.14",
                           delta_respects_rules(p))]
    if builtin_id(p):           # a user calculus need not have the matrix T
        checks.append(Check.vanish(f"maurer-cartan[{p.name}]", "sec-3-IV",
                                   maurer_cartan_residuals(p),
                                   details="closure d(form) = +form.form"))
    checks.append(Check.vanish(f"form-diff-roundtrip[{p.name}]",
                               "eq-2.17" if p.calculus.side == "left" else "eq-2.22",
                               form_diff_roundtrip_residuals(p)))
    return checks


def suite_vector_fields(cfg: SuiteConfig) -> list:
    p, degree = cfg.presentation, cfg.degree(3)
    return [Check.vanish(f"vector[{p.name}][{tag}]", tag.split("[")[0], residuals,
                         details=f"{len(residuals)} monomials, degree <= {degree}; "
                                 f"{COMPOSITION_CONVENTION}")
            for tag, residuals in check_vector_algebra(
                printed(f"vector-{builtin_id(p)}", VECTOR_FIELDS), p, degree)]


# -- global suites ----------------------------------------------------------------

def _rules_vanish(m: Morphism, name: str, paper_ref: str, details: str) -> Check:
    """Every relation of the morphism's source maps to 0, one rule at a time."""
    rules = preset(m.source).rules
    return Check.vanish(name, paper_ref, ((r.lhs, m.apply(r.relation())) for r in rules),
                        details=f"{len(rules)} {details}")


def suite_reductions(cfg: SuiteConfig) -> list:
    return [_rules_vanish(m, f"reduction[{m.name}]", "sec-4",
                          f"source relations vanish in {m.target.name}")
            for m in reduction_morphisms()]


def suite_interchange(cfg: SuiteConfig) -> list:
    fwd = interchange_left_to_right()
    back = interchange_right_to_left()
    p = preset(fwd.source)
    checks = [_rules_vanish(fwd, "interchange[left->right]", "sec-6",
                            "rules map into the right-calculus ideal "
                            "under a<->d, q<->1/q")]
    checks.append(Check.vanish(
        "interchange[involution]", "sec-6",
        ((r.lhs, normalize(back.apply(fwd.apply(r.relation(), normalized=False),
                                      normalized=False) - r.relation(), p))
         for r in p.rules),
        details="applying the interchange twice is the identity on every rule"))
    return checks


def _at_one(x: Element) -> Element:
    return x.substitute({}, lambda s: Scalar.fraction(*s.eval_q1().as_integer_ratio()))


def suite_classical_limit(cfg: SuiteConfig) -> list:
    """Every rule LHS x.y... must equal its reverse ...y.x times
    (-1)^(k(k-1)/2) at q = 1, modulo the classical relations: reversing
    swaps each pair of its k odd letters (minus for an odd/odd x.y).

    The relation is normalized in the confluent form-mode presentation
    (with the generator differentials substituted for rules of its
    derived differential system, when it declares a calculus) and the
    unique normal form is evaluated at q = 1; it vanishes iff the
    classical (anti)commutator holds.
    """
    p = cfg.presentation
    checks = [_classical_limit(p, p, {})]
    if p.calculus is not None:
        try:
            dp = diff_presentation(p)
        except ValueError as exc:
            return checks + [Check(
                f"classical-limit[{p.name}-diff]", "sec-6", "fail", str(exc),
                "the differential-mode system cannot be derived")]
        checks.append(_classical_limit(dp, p, p.calculus.del_images()))
    return checks


def _classical_limit(pres: Presentation, p: Presentation, subst: dict) -> Check:
    """The classical limit of the rules of ``pres``, judged in ``p``."""
    minus = [pres.form_degree(r.lhs) % 4 > 1 for r in pres.rules]  # k(k-1)/2 odd
    kinds = {"commutator": minus.count(False), "anticommutator": minus.count(True)}

    def residuals():
        for r, negative in zip(pres.rules, minus):
            rel = Element.word(*r.lhs) - Element.term(-1 if negative else 1, r.lhs[::-1])
            if subst:
                rel = rel.substitute(subst)
            try:
                res = _at_one(normalize(rel, p))
            except PoleAtOneError:
                res = "pole at q = 1"
            yield r.lhs, res

    return Check.vanish(f"classical-limit[{pres.name}]", "sec-6", residuals(),
                        details=f"all rules (anti)commute at q=1: {kinds}")


SUITES = {
    "confluence": suite_confluence,
    "ybe": suite_ybe,
    "rtt": suite_rtt,
    "hopf": suite_hopf,
    "delta2": suite_delta2,
    "qtrace": lambda cfg: qtrace_check(cfg.presentation),
    "vector-fields": suite_vector_fields,
    "reductions": suite_reductions,
    "interchange": suite_interchange,
    "classical-limit": suite_classical_limit,
    "regression-3.24": lambda cfg: printed_relation_checks("glq2-left", "eq-3.24"),
    "regression-4.4": lambda cfg: (printed_relation_checks("slq2-left", "eq-4.4")
                                   + wz_plane_checks("left")),
    "regression-5.22": lambda cfg: (printed_relation_checks("glq2-right", "eq-5.22")
                                    + wz_plane_checks("right")),
    "conjugation": lambda cfg: conjugate_forms_check(),
}

SUITE_NAMES = tuple(SUITES)

_T_ENTRIES = frozenset("abcd")       # the generators of the quantum matrix T
_HOPF_GENS = _T_ENTRIES | {"D", "Dinv"}

# the presentations each per-presentation suite checks, and why it skips
# the others; the suites not listed check the whole preset family
_APPLIES = {
    "confluence": (lambda p: True, ""),
    "rtt": (lambda p: _T_ENTRIES.issubset(p.parity),
            "needs the matrix generators a b c d"),
    "hopf": (lambda p: _HOPF_GENS.issubset(p.parity) and not p.odd_names(),
             "needs a b c d D Dinv and no odd generators"),
    "delta2": (lambda p: p.calculus is not None, "no differential calculus"),
    "qtrace": (lambda p: builtin_id(p) in TRACE_FORM,
               "the quantum trace lives in the built-in GL calculi"),
    "vector-fields": (lambda p: builtin_id(p) in VECTOR_FIELD_PRESETS,
                      "no printed vector-field relations for this presentation"),
    "classical-limit": (lambda p: True, ""),
}

# run_all reports these suites in the order of their data, not PRESET_IDS
_ORDER = {"delta2": CALCULUS_PRESETS, "vector-fields": VECTOR_FIELD_PRESETS}


def _run(name: str, cfg: SuiteConfig) -> list:
    """The checks of one suite on ``cfg.presentation``, or one ``skipped``
    check saying why it does not apply there.  The checks share the
    suite's wall time."""
    p = cfg.presentation
    if name not in _APPLIES:
        if builtin_id(p) is None:
            return _skip(name, "checks the built-in preset family, not a "
                               "user presentation")
    elif not _APPLIES[name][0](p):
        return _skip(f"{name}[{p.name}]", _APPLIES[name][1])
    t0 = time.perf_counter()
    checks = SUITES[name](cfg)
    ms = (time.perf_counter() - t0) * 1000.0
    for c in checks:
        c.ms = round(ms / max(len(checks), 1), 3)
    return checks


def run_suite(config: SuiteConfig) -> SuiteReport:
    """Run the requested suites against one presentation."""
    report = SuiteReport(preset=config.presentation.name, seed=config.seed,
                         max_degree=config.degree(3),
                         conventions=dict(CONVENTIONS))
    for name in config.suites or SUITE_NAMES:
        if name not in SUITES:
            raise KeyError(f"unknown suite {name!r}; known: {', '.join(SUITE_NAMES)}")
        report.suites.append(Suite(name, _run(name, config)))
    return report


def run_all(seed: int = 2024, max_degree: int = 0) -> SuiteReport:
    """The full verification matrix: every suite over every preset it
    covers (a per-presentation suite is listed only where it applies).

    The checks of different presentations share no state, so the jobs
    are grouped by presentation, which keeps each memo in one process,
    and the groups are dealt to one process per usable CPU (see
    ``_processes``).  The report does not depend on the deal; each
    check's ``ms`` is measured in the process that ran it."""
    cfgs = {pid: SuiteConfig(preset(pid), max_degree=max_degree, seed=seed)
            for pid in PRESET_IDS}
    report = SuiteReport(preset="all", seed=seed, max_degree=cfgs["glq2"].degree(3),
                         conventions=dict(CONVENTIONS))
    # (suite, preset id) in report order; None: a suite of the whole family
    jobs = [(name, pid) for name in SUITE_NAMES
            for pid in (_ORDER.get(name, PRESET_IDS) if name in _APPLIES else (None,))]
    # the presentations in report order, then the family suites (None);
    # the i-th of these groups runs in process i mod n
    groups = list(dict.fromkeys(pid for _, pid in jobs))
    n = _processes(len(groups))
    deal = {pid: i % n for i, pid in enumerate(groups)}
    checks = _run_shares([[job for job in jobs if deal[job[1]] == k]
                          for k in range(n)], cfgs)
    for name, pid in jobs:
        got = checks[name, pid]
        if pid is None:
            report.suites.append(Suite(name, got))
        elif got[0].status != "skipped":
            report.suites.append(Suite(f"{name}@{pid}", got))
    return report


def _processes(groups: int) -> int:
    """How many processes ``run_all`` deals its ``groups`` to: one per
    usable CPU but no more than there are groups, and one where
    ``os.fork`` or the CPU affinity is missing (Windows, macOS) or where
    forking is unsafe because the process runs other threads."""
    if (not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or threading.active_count() > 1):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), groups))


def _run_share(share: list, cfgs: dict) -> dict:
    return {(name, pid): _run(name, cfgs[pid or "glq2"]) for name, pid in share}


def _run_shares(shares: list, cfgs: dict) -> dict:
    """{(suite, preset id): checks} of the jobs of every share.  The first
    share runs here; each other one runs in a forked child, which sends
    its checks back as a pickle over its own pipe.  A child that sends
    nothing, because its share raised or it ended early, has its share
    run again here, so a failure is raised as it is in one process.
    Every child is reaped, and on an exception here it is sent SIGTERM
    first."""
    results, children = {}, {}
    try:
        for share in shares[1:]:
            read, write = os.pipe()
            child = os.fork()
            if child == 0:
                _send(read, write, share, cfgs)         # ends the child
            os.close(write)
            children[child] = read, share
        results.update(_run_share(shares[0], cfgs))
        for read, share in children.values():
            with open(read, "rb", closefd=False) as f:
                data = f.read()
            results.update(pickle.loads(data) if data else _run_share(share, cfgs))
    except BaseException:
        for child in children:
            os.kill(child, signal.SIGTERM)
        raise
    finally:
        for child, (read, _) in children.items():
            os.close(read)
            os.waitpid(child, 0)
    return results


def _send(read: int, write: int, share: list, cfgs: dict) -> None:
    """In a forked child: run ``share``, write its checks to ``write`` as
    a pickle, and end the child at once, so that nothing the parent owns
    is flushed or cleaned up twice.  A share that raises writes nothing."""
    try:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        os.close(read)
        data = pickle.dumps(_run_share(share, cfgs))
        with open(write, "wb") as f:
            f.write(data)
    finally:
        os._exit(0)
