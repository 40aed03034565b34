"""Named verification suites and the report-producing runner.

Suites are small callables producing :class:`~qncalc.reports.Check`
lists.  Some are per-preset (confluence, delta2, ...), others are global
to the whole preset family (reductions, interchange, regressions); a
suite asked to run against a preset it does not cover reports a single
``skipped`` check.  ``run_all`` executes the full matrix.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from . import rmatrix
from .calculus import (
    CALCULUS_PRESETS,
    COMPOSITION_CONVENTION,
    VECTOR_RELATIONS,
    check_nilpotent,
    check_vector_algebra,
    conjugate_forms_check,
    delta_respects_rules,
    diff_presentation,
    diff_structure,
    form_diff_roundtrip_check,
    maurer_cartan_check,
    qtrace_check,
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
    antipode_check,
    coproduct_check,
    epsilon_identity_check,
    free_presentation,
    interchange_left_to_right,
    interchange_right_to_left,
    preset,
    qdet,
    reduction_morphisms,
)
from .qfield import PoleAtOneError, Scalar
from .reports import Check, Suite, SuiteReport
from .targets import (
    PRINTED_3_24,
    PRINTED_4_4,
    PRINTED_5_22,
    printed_relation_checks,
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


@dataclass
class SuiteConfig:
    preset: str = "glq2"
    suites: tuple = ()
    max_degree: int = 0          # 0 = per-suite default
    seed: int = 2024
    allow_mismatch: bool = False
    source: Presentation | None = None   # user presentation from a file

    def presentation(self) -> Presentation:
        if self.source is not None:
            return self.source
        return preset(self.preset)

    def degree(self, default: int) -> int:
        return self.max_degree if self.max_degree > 0 else default


def _skip(name, why) -> list:
    return [Check(name, "", "skipped", details=why)]


def _aggregate(name, paper_ref, checks, details="") -> Check:
    bad = [c for c in checks if c.status == "fail"]
    mis = [c for c in checks if c.status == "mismatch"]
    if bad:
        first = bad[0]
        return Check.failed(name, paper_ref, residual=first.residual,
                            details=f"{len(bad)} of {len(checks)} failed; "
                                    f"first: {first.name}")
    if mis:
        first = mis[0]
        return Check(name, paper_ref, "mismatch", residual=first.residual,
                     details=f"{len(mis)} of {len(checks)} mismatched; "
                             f"first: {first.name}")
    return Check.passed(name, paper_ref,
                        details=details or f"{len(checks)} checks")


# -- confluence ---------------------------------------------------------------

def suite_confluence(cfg: SuiteConfig) -> list:
    p = cfg.presentation()
    checks = []
    rep = validate_presentation(p)
    checks.append(Check.of(rep.valid, f"validate[{p.name}]", "",
                           residual="; ".join(str(i) for i in rep.issues[:3])))
    conf = check_local_confluence(p)
    checks.append(Check.of(
        conf.confluent, f"local-confluence[{p.name}]", "sec-3-diamond",
        residual=str(conf.unresolved[0].residual) if conf.unresolved else None,
        details=f"{len(conf.pairs)} critical pairs, "
                f"{len(conf.unresolved)} unresolved"))
    if p is preset("glq2-left"):
        checks += _cubic_chain_checks(p)
    n_words, seeds = (200, 5) if p is preset("glq2") else (50, 2)
    rng = random.Random(cfg.seed)
    letters = [g.name for g in p.generators]
    agree = 0
    mismatch_detail = None
    for _ in range(n_words):
        word = tuple(rng.choice(letters) for _ in range(rng.randint(1, 4)))
        want = normalize(Element.word(*word), p)
        for s in range(seeds):
            got = random_strategy_normalize(Element.word(*word), p,
                                            seed=cfg.seed + s)
            if got == want:
                agree += 1
            elif mismatch_detail is None:
                mismatch_detail = ".".join(word)
    checks.append(Check.of(
        mismatch_detail is None, f"strategy-independence[{p.name}]", "",
        residual=mismatch_detail,
        details=f"{n_words} random words x {seeds} seeds agree with the "
                f"canonical strategy (seed {cfg.seed})"))
    return checks


def _cubic_chain_checks(p: Presentation) -> list:
    checks = []
    for word, coef, target in (
            (("tht4", "th3", "th2"), -_q(2), ("th2", "th3", "tht4")),
            (("tht4", "th2", "tht1"), -_q(4), ("tht1", "th2", "tht4"))):
        expected = Element.term(coef, target)
        canonical = normalize(Element.word(*word), p)
        routes_agree = all(
            random_strategy_normalize(Element.word(*word), p, seed=s) == expected
            for s in range(5))
        ok = canonical == expected and routes_agree
        checks.append(Check.of(
            ok, f"cubic-chain[{'.'.join(word)}]", "sec-3-diamond",
            residual=str(canonical - expected),
            details=f"all reduction routes give {expected}"))
    return checks


# -- R-matrix -----------------------------------------------------------------

def suite_ybe(cfg: SuiteConfig) -> list:
    checks = []
    res = rmatrix.ybe_residual(rmatrix.standard_r())
    flat = [c for row in res for c in row]
    checks.append(Check.of(all(c.is_zero for c in flat), "ybe[standard-R]",
                           "eq-2.5",
                           details="all 64 residual entries zero; R = "
                                   f"{rmatrix.format_r(rmatrix.standard_r())}"))
    res_p = rmatrix.ybe_residual(rmatrix.perturbed_r())
    witness = next(((i, j) for i, row in enumerate(res_p)
                    for j, c in enumerate(row) if not c.is_zero), None)
    checks.append(Check.of(
        witness is not None, "ybe[perturbed-R nonzero]", "eq-2.5",
        details=f"nonzero residual entry at {witness}: "
                f"{res_p[witness[0]][witness[1]] if witness else ''}"))
    conv = rmatrix.r_inverse_conventions()
    checks.append(Check.of(conv["plain"], "r-inverse[R(q).R(1/q) = 1]", "sec-6",
                           details=f"conventions holding: "
                                   f"{[k for k, v in conv.items() if v]}"))
    return checks


def suite_rtt(cfg: SuiteConfig) -> list:
    p = cfg.presentation()
    if any(n not in p.parity for n in ("a", "b", "c", "d")):
        return _skip(f"rtt[{p.name}]", "preset lacks the full matrix of generators")
    res = rmatrix.rtt_residual(rmatrix.standard_r(), p)
    bad = {k: v for k, v in res.items() if not v.is_zero}
    checks = [Check.of(not bad, f"rtt[{p.name}]", "eq-2.4",
                       residual=str(next(iter(bad.values()))) if bad else None,
                       details="all 16 components vanish")]
    if p is preset("glq2"):
        free = free_presentation("a", "b", "c", "d")
        comp = rmatrix.rtt_residual(rmatrix.standard_r(), free)[(1, 1, 1, 2)]
        expected = Element.term(_q(-1), ("a", "b")) - Element.word("b", "a")
        checks.append(Check.of(
            comp == expected, "rtt[free-negative-control]", "eq-2.4",
            residual=str(comp - expected),
            details="free-algebra component (1,1,1,2) is q^-1(ab - q ba)"))
    if p.form_position in ("left", "right"):
        checks.append(_aggregate(
            f"forms-rtt-compat[{p.name}]",
            "eq-3.2" if p.form_position == "right" else "sec-5",
            rmatrix.forms_rtt_compat(rmatrix.standard_r(), p)))
    return checks


# -- Hopf ----------------------------------------------------------------------

def suite_hopf(cfg: SuiteConfig) -> list:
    p = cfg.presentation()
    if p.name != "glq2":
        return _skip(f"hopf[{p.name}]", "Hopf checks run on the glq2 preset")
    checks = []
    det_nf = normalize(qdet(p), p)
    checks.append(Check.of(det_nf == Element.word("D"), "qdet-normal-form",
                           "eq-2.7", residual=str(det_nf)))
    det = qdet(p)
    central = all(normalize(det * Element.word(g) - Element.word(g) * det, p).is_zero
                  for g in ("a", "b", "c", "d"))
    checks.append(Check.of(central, "qdet-central", "eq-2.12"))
    checks.append(_aggregate("levi-civita", "eq-2.8", epsilon_identity_check(p)))
    checks.append(_aggregate("coproduct+counit", "eq-2.1", coproduct_check(p)))
    checks.append(_aggregate("antipode", "eq-2.3", antipode_check(p)))
    return checks


# -- calculus ------------------------------------------------------------------

def suite_delta2(cfg: SuiteConfig) -> list:
    p = cfg.presentation()
    if p.name not in CALCULUS_PRESETS:
        return _skip(f"delta2[{p.name}]", "no differential structure")
    d = diff_structure(p.name)
    checks = [check_nilpotent(d, p, cfg.degree(4))]
    checks.append(_aggregate(f"delta-respects-rules[{p.name}]", "eq-2.14",
                             delta_respects_rules(d, p)))
    checks.append(_aggregate(f"maurer-cartan[{p.name}]", "sec-3-IV",
                             maurer_cartan_check(p.name),
                             details="closure d(form) = +form.form"))
    checks.append(_aggregate(f"form-diff-roundtrip[{p.name}]", "eq-2.17",
                             form_diff_roundtrip_check(p.name)))
    return checks


def suite_qtrace(cfg: SuiteConfig) -> list:
    p = cfg.presentation()
    if p.name not in ("glq2-left", "glq2-right"):
        return _skip(f"qtrace[{p.name}]", "quantum trace lives in the GL calculi")
    return qtrace_check(p)


def suite_vector_fields(cfg: SuiteConfig) -> list:
    p = cfg.presentation()
    if p.name not in VECTOR_RELATIONS:
        return _skip(f"vector-fields[{p.name}]",
                     "no printed vector-field relations for this preset")
    return check_vector_algebra(VECTOR_RELATIONS[p.name], diff_structure(p.name),
                                p, cfg.degree(3))


# -- global suites ----------------------------------------------------------------

def suite_reductions(cfg: SuiteConfig) -> list:
    checks = []
    for m in reduction_morphisms():
        per_rule = []
        for r in preset(m.source).rules:
            image = m.apply(r.relation())
            per_rule.append(Check.of(image.is_zero, ".".join(r.lhs),
                                     r.provenance, residual=str(image)))
        checks.append(_aggregate(f"reduction[{m.name}]", "sec-4",
                                 per_rule,
                                 details=f"{len(per_rule)} source relations "
                                         f"vanish in {m.target.name}"))
    return checks


def suite_interchange(cfg: SuiteConfig) -> list:
    fwd = interchange_left_to_right()
    back = interchange_right_to_left()
    p = preset("glq2-left")
    per_rule = [Check.of(fwd.apply(r.relation()).is_zero, ".".join(r.lhs),
                         r.provenance, residual=str(fwd.apply(r.relation())))
                for r in p.rules]
    checks = [_aggregate("interchange[left->right]", "sec-6", per_rule,
                         details=f"{len(per_rule)} rules map into the "
                                 f"right-calculus ideal under a<->d, q<->1/q")]
    involutive = all(
        normalize(back.apply(fwd.apply(r.relation(), normalized=False),
                             normalized=False) - r.relation(), p).is_zero
        for r in p.rules)
    checks.append(Check.of(involutive, "interchange[involution]", "sec-6",
                           details="applying the interchange twice is the "
                                   "identity on every rule"))
    return checks


def _at_one(x: Element) -> Element:
    return x.map_scalars(
        lambda s: (lambda f: Scalar.fraction(f.numerator, f.denominator))(
            s.eval_q1()))


def suite_classical_limit(cfg: SuiteConfig) -> list:
    """Every rule LHS x.y must satisfy x.y = (+/-) y.x at q = 1 (minus for
    odd/odd pairs), modulo the classical relations.

    The relation is normalized in the confluent form-mode preset (with
    the generator differentials substituted for rules of the derived
    differential systems) and the unique normal form is evaluated at
    q = 1; it vanishes iff the classical (anti)commutator holds.
    """
    checks = []
    p = cfg.presentation()
    names = [p.name] if p.name not in CALCULUS_PRESETS else [p.name, p.name + "-diff"]
    for nm in names:
        diff_mode = nm.endswith("-diff")
        pres = diff_presentation(nm) if diff_mode else p
        subst = ({f"del_{x}": diff_structure(p.name).images[x]
                  for x in ("a", "b", "c", "d") if x in p.parity}
                 if diff_mode else {})
        kinds = {"commutator": 0, "anticommutator": 0}
        bad = []
        for r in pres.rules:
            both_odd = pres.parity[r.lhs[0]] and pres.parity[r.lhs[-1]]
            sign = -1 if both_odd else 1
            rel = (Element.word(*r.lhs)
                   - Element.term(Scalar.from_int(sign), tuple(reversed(r.lhs))))
            if diff_mode:
                rel = rel.substitute(subst)
            try:
                res = _at_one(normalize(rel, p))
            except PoleAtOneError:
                bad.append((r, "pole at q = 1"))
                continue
            if res.is_zero:
                kinds["anticommutator" if both_odd else "commutator"] += 1
            else:
                bad.append((r, res))
        checks.append(Check.of(
            not bad, f"classical-limit[{nm}]", "sec-6",
            residual=f"{'.'.join(bad[0][0].lhs)}: {bad[0][1]}" if bad else None,
            details=f"all rules (anti)commute at q=1: {kinds}"))
    return checks


def suite_regression_3_24(cfg: SuiteConfig) -> list:
    return printed_relation_checks("glq2-left", PRINTED_3_24)


def suite_regression_4_4(cfg: SuiteConfig) -> list:
    return (printed_relation_checks("slq2-left", PRINTED_4_4)
            + wz_plane_checks("left"))


def suite_regression_5_22(cfg: SuiteConfig) -> list:
    return (printed_relation_checks("glq2-right", PRINTED_5_22)
            + wz_plane_checks("right"))


def suite_conjugation(cfg: SuiteConfig) -> list:
    return conjugate_forms_check()


_GLOBAL_SUITES = {
    "ybe", "reductions", "interchange",
    "regression-3.24", "regression-4.4", "regression-5.22", "conjugation",
}

SUITES = {
    "confluence": suite_confluence,
    "ybe": suite_ybe,
    "rtt": suite_rtt,
    "hopf": suite_hopf,
    "delta2": suite_delta2,
    "qtrace": suite_qtrace,
    "vector-fields": suite_vector_fields,
    "reductions": suite_reductions,
    "interchange": suite_interchange,
    "classical-limit": suite_classical_limit,
    "regression-3.24": suite_regression_3_24,
    "regression-4.4": suite_regression_4_4,
    "regression-5.22": suite_regression_5_22,
    "conjugation": suite_conjugation,
}

SUITE_NAMES = tuple(SUITES)

# which presets each per-preset suite meaningfully covers in a full run
_MATRIX = {
    "confluence": PRESET_IDS,
    "ybe": (None,),
    "rtt": ("glq2", "glq2-left", "glq2-right", "slq2-left", "slq2-right"),
    "hopf": ("glq2",),
    "delta2": CALCULUS_PRESETS,
    "qtrace": ("glq2-left", "glq2-right"),
    "vector-fields": ("slq2-left", "glq2-left", "glq2-right"),
    "reductions": (None,),
    "interchange": (None,),
    "classical-limit": PRESET_IDS,
    "regression-3.24": (None,),
    "regression-4.4": (None,),
    "regression-5.22": (None,),
    "conjugation": (None,),
}


def run_suite(config: SuiteConfig) -> SuiteReport:
    """Run the requested suites against one preset (or a user file)."""
    names = config.suites or SUITE_NAMES
    report = SuiteReport(
        preset=config.preset if config.source is None else config.source.name,
        seed=config.seed,
        max_degree=config.degree(0) or 3,
        conventions=dict(CONVENTIONS),
    )
    for name in names:
        if name not in SUITES:
            raise KeyError(f"unknown suite {name!r}; known: {', '.join(SUITE_NAMES)}")
        if config.source is not None and name != "confluence":
            report.suites.append(Suite(name, _skip(
                name, "user presentations run the confluence suite only")))
            continue
        t0 = time.perf_counter()
        checks = SUITES[name](config)
        ms = (time.perf_counter() - t0) * 1000.0
        for c in checks:
            if not c.ms:
                c.ms = round(ms / max(len(checks), 1), 3)
        report.suites.append(Suite(name, checks))
    return report


def run_all(seed: int = 2024, max_degree: int = 0) -> SuiteReport:
    """The full verification matrix: every suite over every preset it covers."""
    report = SuiteReport(preset="all", seed=seed,
                         max_degree=max_degree or 3,
                         conventions=dict(CONVENTIONS))
    for name in SUITE_NAMES:
        for pid in _MATRIX[name]:
            cfg = SuiteConfig(preset=pid or "glq2", suites=(name,),
                              max_degree=max_degree, seed=seed)
            t0 = time.perf_counter()
            checks = SUITES[name](cfg)
            ms = (time.perf_counter() - t0) * 1000.0
            for c in checks:
                if not c.ms:
                    c.ms = round(ms / max(len(checks), 1), 3)
            label = name if pid is None else f"{name}@{pid}"
            report.suites.append(Suite(label, checks))
    return report
