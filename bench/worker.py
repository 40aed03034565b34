"""One cold qncalc process running one benchmark workload.

Started by ``run.py`` in a fresh interpreter with ``src`` on the path::

    python3 bench/worker.py --workload verify-paper --seed 7 --trace 0

It prints one JSON object: the set-up and work times, the peak RSS, the
correctness-gate counts, the input sizes and, with ``--trace 1``, the
per-layer metrics.  Set-up is the import of ``qncalc`` plus ``preset()``
for every preset plus ``diff_presentation()`` for every calculus preset;
the work is timed after it, so caches start cold apart from set-up.
Every time is scaled to nominal machine speed by ``speedref``, which
samples the speed throughout the process.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
from pathlib import Path

from speedref import Sampler

BENCH_DIR = Path(__file__).resolve().parent

# the two unimodular -diff systems are known non-confluent by design and
# left out of the confluence workload (see tests/test_calculus.py)
CONFLUENT_DIFF = ("glq2-left", "glq2-right", "qplane-left-b0", "qplane-left-c0",
                  "qplane-right-b0", "qplane-right-c0")

# normalize-session corpus: expressions per process, and the share of
# them drawn over the derived -diff systems
CORPUS_SIZE = 4000
SMOKE_CORPUS_SIZE = 120
DIFF_SHARE = 0.25
WITNESS_SAMPLE = 24


# ---------------------------------------------------------------------------
# correctness gates (pure functions; each returns a list of violations)
# ---------------------------------------------------------------------------

def verdict_violations(report_json: dict, expected: dict) -> list:
    """Status of every check against the expected-verdict table; details
    are not compared, because they contain the seed."""
    got = {(s["name"], c["name"]): c["status"]
           for s in report_json["suites"] for c in s["checks"]}
    want = {(suite, name): status
            for suite, checks in expected.items() for name, status in checks.items()}
    out = [f"{s}: {n}: got {got[(s, n)]}, expected {st}"
           for (s, n), st in want.items() if (s, n) in got and got[(s, n)] != st]
    out += [f"{s}: {n}: missing" for s, n in want.keys() - got.keys()]
    out += [f"{s}: {n}: unexpected check" for s, n in got.keys() - want.keys()]
    return out


def count_critical_pairs(lhss) -> int:
    """Overlaps (a proper suffix of u equals a prefix of v, u and v possibly
    the same word) plus inclusions (a strictly shorter v occurs in u)."""
    n = 0
    for u in lhss:
        for v in lhss:
            n += sum(1 for k in range(1, min(len(u), len(v))) if u[len(u) - k:] == v[:k])
            if len(v) < len(u):
                n += sum(1 for i in range(len(u) - len(v) + 1) if u[i:i + len(v)] == v)
    return n


# ---------------------------------------------------------------------------
# normalize-session corpus
# ---------------------------------------------------------------------------

def _coef_text(rng) -> str:
    """A positive-looking coefficient: 60% c q^k, 15% Laurent polynomial,
    25% a true rational function (non-monomial denominator)."""
    def mono(k):
        c = rng.randint(1, 5)
        qk = "" if k == 0 else ("q" if k == 1 else f"q^{k}")
        return " ".join(x for x in (str(c) if c > 1 or not qk else "", qk) if x)

    r = rng.random()
    if r < 0.60:
        return mono(rng.randint(-3, 3))
    if r < 0.75:
        return f"({mono(rng.randint(-3, 3))} + {mono(rng.randint(-3, 3))})"
    return (f"({mono(rng.randint(-3, 3))})/"
            f"({rng.randint(1, 3)} + {mono(rng.choice((-3, -2, -1, 1, 2, 3)))})")


def make_corpus(seed: int, size: int, systems: dict) -> list:
    """``size`` (system id, expression text) pairs; every system appears.

    Presets get words of length 3-8.  The derived ``-diff`` systems get
    words of length 2-3 with exactly one differential: short, yet they
    expand into the largest normal forms, which gives the latency tail.
    """
    rng = random.Random(seed)
    preset_ids = [sid for sid in systems if not sid.endswith("-diff")]
    diff_ids = [sid for sid in systems if sid.endswith("-diff")]
    n_diff = int(size * DIFF_SHARE)
    order = [preset_ids[i % len(preset_ids)] for i in range(size - n_diff)]
    order += [diff_ids[i % len(diff_ids)] for i in range(n_diff)]
    rng.shuffle(order)
    corpus = []
    for sid in order:
        p = systems[sid]
        terms = []
        for i in range(rng.randint(1, 3)):
            if sid.endswith("-diff"):
                word = [rng.choice(p.even_names()) for _ in range(rng.randint(1, 2))]
                word.insert(rng.randint(0, len(word)), rng.choice(p.odd_names()))
            else:
                letters = [g.name for g in p.generators]
                word = [rng.choice(letters) for _ in range(rng.randint(3, 8))]
            sign = "-" if rng.random() < 0.3 else "+"
            lead = ("-" if sign == "-" else "") if i == 0 else f" {sign} "
            terms.append(f"{lead}{_coef_text(rng)} {'.'.join(word)}")
        corpus.append((sid, "".join(terms)))
    return corpus


# ---------------------------------------------------------------------------
# workloads: ``work`` runs the workload and returns (windows, state), where
# windows maps a time's name to its (start, end) on the perf_counter clock;
# ``gate`` checks the state and returns the gate counts
# ---------------------------------------------------------------------------

def verify_paper(seed, smoke):
    from qncalc import suites

    t0 = time.perf_counter()
    report = suites.run_all(seed=seed, max_degree=2 if smoke else 0)
    text = report.dumps()
    return {"work_s": (t0, time.perf_counter())}, text


def verify_paper_gate(text, seed):
    expected = json.loads((BENCH_DIR / "expected_verdicts.json").read_text())
    report_json = json.loads(text)
    checks = sum(len(s["checks"]) for s in report_json["suites"])
    return {"attempted": checks,
            "violations": verdict_violations(report_json, expected),
            "sizes": {"checks": checks}}


def diff_confluence(seed, smoke):
    from qncalc import calculus, ncalg, presentations

    systems = [presentations.preset(pid) for pid in presentations.PRESET_IDS]
    systems += [calculus.diff_presentation(pid) for pid in CONFLUENT_DIFF
                if not (smoke and pid.startswith("glq2"))]
    random.Random(seed).shuffle(systems)
    # fresh copies: same rules, empty normal-form memo
    copies = [ncalg.Presentation(p.name, p.generators, p.order, p.rules,
                                 p.form_position, p.tags) for p in systems]
    t0 = time.perf_counter()
    results = [(ncalg.check_local_confluence(c), ncalg.validate_presentation(c))
               for c in copies]
    return {"work_s": (t0, time.perf_counter())}, (copies, results)


def diff_confluence_gate(state, seed):
    copies, results = state
    violations = []
    pairs = 0
    for c, (conf, valid) in zip(copies, results):
        pairs += len(conf.pairs)
        expected = count_critical_pairs([r.lhs for r in c.rules])
        if expected != len(conf.pairs):
            violations.append(f"{c.name}: {len(conf.pairs)} pairs, expected {expected}")
        if not valid.valid:
            violations.append(f"{c.name}: invalid: {valid.issues[:2]}")
        violations += [f"{c.name}: unresolved pair at {'.'.join(cp.word)}"
                       for cp in conf.unresolved]
    return {"attempted": pairs + len(copies), "violations": violations,
            "sizes": {"systems": len(copies), "pairs": pairs}}


def normalize_session(seed, smoke):
    from qncalc import calculus, dsl, ncalg, presentations

    systems = {pid: presentations.preset(pid) for pid in presentations.PRESET_IDS}
    systems.update({f"{pid}-diff": calculus.diff_presentation(pid)
                    for pid in calculus.CALCULUS_PRESETS})
    corpus = make_corpus(seed, SMOKE_CORPUS_SIZE if smoke else CORPUS_SIZE, systems)

    def session():
        outs, lat = [], []
        clock = time.perf_counter
        for sid, text in corpus:
            t = clock()
            p = systems[sid]
            outs.append(ncalg.normalize(dsl.parse_expression(text, p), p))
            lat.append((t, clock()))
        return outs, lat

    t0 = time.perf_counter()
    cold, cold_lat = session()
    t1 = time.perf_counter()
    warm, _ = session()
    t2 = time.perf_counter()
    windows = {"work_s": (t0, t1), "warm_s": (t1, t2), "latencies": cold_lat}
    return windows, (systems, corpus, cold, warm)


def normalize_session_gate(state, seed):
    from qncalc import dsl, ncalg

    systems, corpus, cold, warm = state
    violations = []
    for (sid, text), y, y2 in zip(corpus, cold, warm):
        p = systems[sid]
        bad = [w for w in y.words() if not p.is_normal(w)]
        if bad:
            violations.append(f"{sid}: {text}: reducible output word {'.'.join(bad[0])}")
        if y2 != y:
            violations.append(f"{sid}: {text}: warm result differs from cold")
    rng = random.Random(seed + 1)
    sample = rng.sample([i for i, (sid, _) in enumerate(corpus)
                         if not sid.endswith("-diff")], WITNESS_SAMPLE)
    for i in sample:
        sid, text = corpus[i]
        p = systems[sid]
        got = ncalg.random_strategy_normalize(dsl.parse_expression(text, p), p,
                                              seed=seed + i)
        if got != cold[i]:
            violations.append(f"{sid}: {text}: random strategy disagrees")
    return {"attempted": 2 * len(corpus) + len(sample), "violations": violations,
            "sizes": {"expressions": len(corpus), "witness_sample": len(sample)}}


WORKLOADS = {
    "verify-paper": (verify_paper, verify_paper_gate),
    "diff-confluence": (diff_confluence, diff_confluence_gate),
    "normalize-session": (normalize_session, normalize_session_gate),
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="reduced inputs, for the benchmark's self-test")
    ap.add_argument("--spans", help="write the traced spans to this .json.gz file")
    args = ap.parse_args(argv)

    sampler = Sampler()
    sampler.install()
    t0 = time.perf_counter()
    import qncalc
    from qncalc import calculus, presentations

    src = BENCH_DIR.parent / "src"
    if src.resolve() not in Path(qncalc.__file__).resolve().parents:
        print(f"error: qncalc imported from {qncalc.__file__}, not {src}",
              file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        from layertrace import Tracer
        tracer = Tracer()
        tracer.install()
    t1 = time.perf_counter()
    for pid in presentations.PRESET_IDS:
        presentations.preset(pid)
    t2 = time.perf_counter()
    for pid in calculus.CALCULUS_PRESETS:
        calculus.diff_presentation(pid)
    t3 = time.perf_counter()

    work, gate = WORKLOADS[args.workload]
    if tracer is not None:
        tracer.reset()        # layer metrics cover the work, not set-up
    t4 = time.perf_counter()
    windows, state = work(args.seed, args.smoke)
    t5 = time.perf_counter()
    layers = None
    if tracer is not None:
        layers = tracer.layer_metrics({"preset_s": t2 - t1, "derive_s": t3 - t2})
        spans = len(tracer.spans)
        if args.spans:
            tracer.write_spans(Path(args.spans))
    gates = gate(state, args.seed)
    sampler.uninstall()

    w0, w1 = windows["work_s"]
    result = {name: sampler.scaled(*windows[name]) for name in ("work_s", "warm_s")
              if name in windows}
    if "latencies" in windows:
        f = sampler.factor(w0, w1)
        result["latencies_ms"] = [sampler.scaled(a, b, f) * 1e3
                                  for a, b in windows["latencies"]]
    if layers is not None:
        # layer times include the sampler's handler time (about 1.5%)
        f = sampler.factor(t4, t5)
        layers = {k: v * f if k.endswith("_s") or k == "qfield.us_per_scalar" else v
                  for k, v in layers.items()}
        # the two set-up times take the factors of their own windows
        layers.update({"presentations.preset_s": sampler.scaled(t1, t2),
                       "calculus.derive_s": sampler.scaled(t2, t3)})
        result.update(layers=layers, spans=spans)
    result.update(gates)
    result.update(workload=args.workload, seed=args.seed,
                  setup_s=sampler.scaled(t0, t3),
                  wall_s={"setup": t3 - t0, "work": w1 - w0},
                  speed_factor=sampler.factor(), handler_s=sampler.handler_s(),
                  rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
