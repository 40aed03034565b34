"""qncalc benchmark: one workload, several cold processes, one JSON result.

Usage, from the root of a checkout (stdlib only; ``src`` is put on the
path of each worker, nothing is installed)::

    python3 bench/run.py --workload verify-paper --seed 7 --seconds 20 --trace 0

Each worker (``bench/worker.py``) is a fresh interpreter, so caches
start cold and set-up is measured every time.  Workers run one after
another, in a closed loop with one caller, for about ``--seconds``: at
least three run, and another starts only if it should end in time.  With ``--trace 1`` the loop
alternates untraced and traced workers and reports the per-layer
metrics; the traced spans of the last traced worker are written to
``.bench_out/``.

Every time is scaled to nominal machine speed (``bench/speedref.py``);
the unscaled wall times are printed beside the scaled ones.

Human-readable lines come first; the last line of standard output is
the JSON result.  The exit code is 1 when a correctness gate fails and 2
when the program cannot be run at all (then no result is printed).
See ``bench/README.md`` for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("verify-paper", "diff-confluence", "normalize-session")
MIN_WORKERS = 3
WORKER_TIMEOUT_S = 150


class WorkerError(RuntimeError):
    pass


def run_worker(workload, seed, traced, smoke) -> tuple:
    """One cold process; returns (wall seconds, its JSON result)."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced))]
    if smoke:
        cmd.append("--smoke")
    if traced:
        cmd += ["--spans", str(ROOT / ".bench_out" / f"spans-{workload}-{seed}.json.gz")]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{workload} worker exceeded {WORKER_TIMEOUT_S} s") from exc
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise WorkerError(f"{workload} worker exited {proc.returncode}:\n"
                          f"{proc.stderr[-2000:]}")
    return wall, json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(sorted_values, pct):
    """Nearest-rank percentile of an already sorted list."""
    return sorted_values[max(0, math.ceil(pct / 100 * len(sorted_values)) - 1)]


def source_meta(workload, seed) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qncalc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    rev = "none"
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        rev = out.stdout.strip() or "none"
    return {"workload": workload, "seed": seed, "git_rev": rev,
            "src_sha256": digest.hexdigest()[:16], "python": platform.python_version(),
            "nproc": os.cpu_count()}


def workload_lines(workload, plain) -> list:
    """The workload's own end-to-end metrics, under the names they have in
    bench/README.md: (name, value, unit, note)."""
    med = lambda key: statistics.median(r[key] for _, r in plain)
    if workload == "verify-paper":
        return [("verdict_s", med("work_s"), "s", "run_all to its JSON report")]
    if workload == "diff-confluence":
        pairs = plain[0][1]["sizes"]["pairs"]
        return [("pairs_per_s", pairs / med("work_s"), "1/s",
                 f"{pairs} critical pairs")]
    n = plain[0][1]["sizes"]["expressions"]
    lat = sorted(x for _, r in plain for x in r["latencies_ms"])
    p99 = percentile(lat, 99)
    beyond = sum(1 for x in lat if x > p99)
    return [("expr_per_s", n / med("work_s"), "1/s", f"cold pass, {n} expressions"),
            ("expr_warm_per_s", n / med("warm_s"), "1/s", "same corpus again"),
            ("expr_ms_p50", percentile(lat, 50), "ms", f"{len(lat)} samples"),
            ("expr_ms_p99", p99, "ms", f"{len(lat)} samples, {beyond} beyond")]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="reduced inputs and a single worker (the self-test)")
    args = ap.parse_args(argv)
    # on SIGTERM, unwind through subprocess.run, which kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "qncalc" / "__init__.py").is_file():
        print(f"error: no qncalc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    meta = source_meta(args.workload, args.seed)

    plain, traced = [], []
    min_rounds = 1 if args.smoke or args.trace else MIN_WORKERS
    start = time.perf_counter()
    longest = 0.0
    try:
        # start another round only if it should end within --seconds
        while (len(plain) < min_rounds
               or time.perf_counter() - start + longest <= args.seconds):
            t0 = time.perf_counter()
            plain.append(run_worker(args.workload, args.seed, False, args.smoke))
            if args.trace:
                traced.append(run_worker(args.workload, args.seed, True, args.smoke))
            longest = max(longest, time.perf_counter() - t0)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    runs = plain + traced
    attempted = sum(r["attempted"] for _, r in runs)
    failed = sum(len(r["violations"]) for _, r in runs)
    meta.update(workers=len(plain), traced_workers=len(traced),
                sizes=plain[0][1]["sizes"])
    print("meta " + json.dumps(meta))
    for _, r in runs:
        for v in r["violations"][:5]:
            print(f"VIOLATION {v}")

    med = lambda key, rs=plain: statistics.median(r[key] for _, r in rs)
    # a worker's wall time, less the sampler's handler time, at nominal speed
    process = [(wall - r["handler_s"]) * r["speed_factor"] for wall, r in plain]
    values = {"setup_s": med("setup_s"),
              "process_s": statistics.median(process),
              "work_s": med("work_s"),
              "peak_rss_mb": med("rss_mb")}
    lines = [(k, v, None, f"median of {len(plain)} processes")
             for k, v in values.items()]
    raw = lambda key: statistics.median(r["wall_s"][key] for _, r in plain)
    speeds = [r["speed_factor"] for _, r in plain]
    lines += [("speed_factor", statistics.median(speeds), "",
               f"machine speed over nominal, {min(speeds):.3f} to {max(speeds):.3f}"),
              ("setup_wall_s", raw("setup"), "s", "unscaled"),
              ("process_wall_s", statistics.median(w for w, _ in plain), "s", "unscaled"),
              ("work_wall_s", raw("work"), "s", "unscaled")]
    lines += workload_lines(args.workload, plain)
    lines.append(("fail_frac", failed / attempted, "", f"{failed} of {attempted}"))
    wanted = spec["end_to_end"]
    if args.trace:
        layers = {k: statistics.median(r["layers"][k] for _, r in traced)
                  for k in traced[0][1]["layers"]}
        layers["trace.overhead_frac"] = med("work_s", traced) / values["work_s"] - 1
        values = layers
        lines += [(k, v, None, f"median of {len(traced)} traced processes")
                  for k, v in layers.items()]
        wanted = spec["per_layer"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value, unit, note in lines:
        print(f"{name:34s} {value:14.6g} {unit if unit is not None else units[name]:6s}"
              f"  {note}")

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 2
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                          for m in wanted}}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
