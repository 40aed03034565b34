"""Fast self-test of the benchmark: every workload, untraced and traced, at
reduced size, plus the correctness gates and the missing-source exit.

Run from the root of the repository::

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(BENCH))

import speedref  # noqa: E402
import worker  # noqa: E402


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_smoke(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == \
        [(m["name"], m["unit"]) for m in wanted]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v > 0 for v in metrics.values())
    else:
        # the derivation runs on verify-paper only
        assert (metrics["calculus.apply_delta_calls"] > 0) == (workload == "verify-paper")


def test_exits_without_result_when_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "verify-paper", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_verdict_gate_counts_each_wrong_status():
    expected = json.loads((BENCH / "expected_verdicts.json").read_text())
    report = {"suites": [{"name": s, "checks": [{"name": n, "status": st}
                                                for n, st in checks.items()]}
                         for s, checks in expected.items()]}
    assert worker.verdict_violations(report, expected) == []
    report["suites"][0]["checks"][0]["status"] = "fail"
    report["suites"][-1]["checks"].pop()
    assert len(worker.verdict_violations(report, expected)) == 2


def test_expected_verdicts_match_the_paper():
    expected = json.loads((BENCH / "expected_verdicts.json").read_text())
    statuses = [st for checks in expected.values() for st in checks.values()]
    assert statuses.count("pass") == 185
    assert sorted(n for n, st in expected["regression-5.22"].items()
                  if st == "mismatch") == sorted(
        f"eq-5.22[{w}]" for w in ("c.del_c", "d.del_a:sq", "a.del_d", "d.del_a",
                                  "b.del_d", "d.del_b"))
    assert statuses.count("mismatch") == 6


def test_critical_pair_count():
    # ab/bc overlap on b; bc sits inside abc; aa overlaps itself on a
    assert worker.count_critical_pairs([("a", "b"), ("b", "c")]) == 1
    assert worker.count_critical_pairs([("a", "b", "c"), ("b", "c")]) == 1
    assert worker.count_critical_pairs([("a", "a")]) == 1


def test_sampler_scales_to_nominal_speed():
    s = speedref.Sampler()
    slow = 2 * speedref.REF_NOMINAL_S          # the machine at half speed
    for i in range(10):
        s.record(i * 0.1, slow)
    s.record(5.0, speedref.REF_NOMINAL_S)      # full speed, alone in its window
    assert s.factor(0.0, 1.0) == pytest.approx(0.5)
    assert s.scaled(0.0, 1.0) == pytest.approx((1.0 - 10 * slow) * 0.5)
    # too few samples in a window: the whole process's factor
    assert s.factor(4.0, 6.0) == pytest.approx((10 * 0.5 + 1.0) / 11)
    assert s.handler_s(4.0, 6.0) == pytest.approx(speedref.REF_NOMINAL_S)


def test_sampler_samples_while_installed():
    s = speedref.Sampler()
    s.install()
    t0 = speedref.time.perf_counter()
    while speedref.time.perf_counter() - t0 < 20 * speedref.INTERVAL_S:
        speedref.reference()
    s.uninstall()
    assert len(s.speeds) >= 10 and all(v > 0 for v in s.speeds)
    assert 0 < s.handler_s() < speedref.time.perf_counter() - t0
