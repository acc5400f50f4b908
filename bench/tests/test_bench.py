"""Tests of the benchmark's own machinery: scoring, span arithmetic, tracing.

Run with: python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from array import array
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402


def _report(checks) -> str:
    return json.dumps({"schema": "cherpoi/report-v1", "status": "pass", "checks": checks})


def _checks():
    return [
        {"name": "a", "verdict": "pass", "left": {"x": 1}, "right": {"x": 1}, "wall_ms": 1.5},
        {"name": "b", "verdict": "pass", "left": [1, 2], "right": [1, 2], "wall_ms": 2.0},
        {"name": "c", "verdict": "pass", "left": "1 + v", "right": "1 + v", "wall_ms": 0.5},
    ]


def _expected(checks):
    return [[c["name"], c["verdict"], run.check_digest(c)] for c in checks]


def test_clean_report_scores_zero_failures():
    checks = _checks()
    score = run.score_report(_expected(checks), 0, _report(checks))
    assert (score.attempted, score.failed, score.problems) == (3, 0, [])
    assert score.check_seconds == {"a": 0.0015, "b": 0.002, "c": 0.0005}


def test_timings_do_not_enter_the_comparison():
    checks = _checks()
    expected = _expected(checks)
    checks[0]["wall_ms"] = 999.0
    assert run.score_report(expected, 0, _report(checks)).failed == 0


def test_corrupted_report_is_counted_as_failed():
    expected = _expected(_checks())

    wrong_verdict = _checks()
    wrong_verdict[1]["verdict"] = "fail"
    wrong_contents = _checks()
    wrong_contents[2]["left"] = "1 + 2*v"
    missing = _checks()[:2]
    extra = _checks() + [{"name": "d", "verdict": "pass", "left": 0, "right": 0, "wall_ms": 1.0}]

    assert run.score_report(expected, 0, _report(wrong_verdict)).failed == 1
    assert run.score_report(expected, 0, _report(wrong_contents)).failed == 1
    assert run.score_report(expected, 0, _report(missing)).failed == 1
    score = run.score_report(expected, 0, _report(extra))
    assert (score.attempted, score.failed) == (4, 1)
    assert run.score_report(expected, 0, _report(_checks())[:-7]).failed == 3
    assert run.score_report(expected, 0, "").failed == 3
    assert run.score_report(expected, 1, _report(_checks())).failed == 3


def test_self_time_subtracts_direct_children():
    names = ["root", "child", "leaf"]
    # root [0, 10] > child [1, 4] > leaf [2, 3]; root > child [5, 6]
    name_ids = array("i", [0, 1, 2, 1])
    parents = array("i", [-1, 0, 1, 0])
    starts = array("d", [0.0, 1.0, 2.0, 5.0])
    ends = array("d", [10.0, 4.0, 3.0, 6.0])
    totals = run.span_totals(names, name_ids, parents, starts, ends)
    assert totals == {"root": [1, 6.0], "child": [2, 3.0], "leaf": [1, 1.0]}


def test_end_to_end_scales_each_process_then_takes_medians():
    def iteration(*samples):
        it = run.Iteration()
        it.samples = [run.Sample(wall, wall, rss, {"c": wall - 0.25}, scale) for wall, rss, scale in samples]
        return it

    # Process 0 ran at half speed in the second iteration, and its
    # calibrations saw it; process 1 had one slow outlier.
    iterations = [
        iteration((2.0, 20.0, 1.0), (1.0, 30.0, 1.0)),
        iteration((4.0, 20.0, 0.5), (1.2, 30.0, 1.0)),
        iteration((2.2, 21.0, 1.0), (3.0, 31.0, 1.0)),
    ]
    metrics = run.end_to_end(iterations)
    assert metrics["wall_s"] == 2.0 + 1.2
    assert metrics["cpu_s"] == 2.0 + 1.2
    assert metrics["setup_s"] == 0.25
    assert metrics["peak_rss_mb"] == 30.0
    assert run.slowest_check(iterations) == 1.875


def _traced(tmp_path: Path, tag: str) -> dict:
    prefix = tmp_path / tag
    env = dict(os.environ, PYTHONPATH=str(run.ROOT / "src"), CHERPOI_CACHE=str(tmp_path / "cache"))
    cmd = [sys.executable, str(run.LAUNCHER), str(prefix), "verify", "--suite", "fake-degrees", "--n-max", "4"]
    done = subprocess.run(cmd, env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["status"] == "pass"
    return run.read_trace(prefix)


def test_launcher_patches_names_imported_into_other_modules(tmp_path):
    trace = _traced(tmp_path, "one")
    assert trace["missing"] == []
    spans = trace["spans"]
    # fake_degree is called through verifier_cli's imported name, divexact
    # through sn_rep's; both are only seen if every namespace was patched.
    assert spans["sn_rep.fake_degree"][0] > 0
    assert spans["exact_poly.divexact"][0] > 0
    assert spans["exact_poly.mul"][0] > 0
    assert spans["verifier_cli.run_suite"][0] == 1
    assert spans["verifier_cli.to_json"][0] == 1
    assert trace["counters"]["exact_poly.mul.max_terms"] > 0


def test_traced_counts_repeat_exactly(tmp_path):
    first = run.layer_metrics([_traced(tmp_path, "one")])
    second = run.layer_metrics([_traced(tmp_path, "two")])
    counts = [k for k in first if not k.endswith("_s")]
    assert counts
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


def test_benchmark_json_matches_what_the_runner_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert spec["paths"] == ["bench"]


def test_reference_covers_every_process():
    reference = run.load_reference()
    for workload in run.WORKLOADS.values():
        for template in workload.processes:
            checks = reference[" ".join(template)]
            assert checks and all(verdict == "pass" for _, verdict, _ in checks)
