"""Tests of the benchmark itself: span arithmetic, patch restoration,
generator determinism and a tiny-size run of every workload."""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench import generators, spans, workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- spans ----------------------------------------------------------------


def test_self_time_subtracts_direct_children_only(monkeypatch):
    # Tree: root [0, 10] holds a [1, 4] and b [5, 9]; b holds a [6, 7].
    clock = iter([0.0, 1.0, 4.0, 5.0, 6.0, 7.0, 9.0, 10.0])
    monkeypatch.setattr(spans, "perf_counter", lambda: next(clock))
    rec = spans.SpanRecorder()
    root = rec.open(rec.name_id("root"))
    rec.close(rec.open(rec.name_id("a")))
    b = rec.open(rec.name_id("b"))
    rec.close(rec.open(rec.name_id("a")))
    rec.close(b)
    rec.close(root)
    totals = rec.totals()
    assert totals["root"] == (1, pytest.approx(3.0))  # 10 - 3 - 4
    assert totals["b"] == (1, pytest.approx(3.0))  # 4 - 1
    assert totals["a"] == (2, pytest.approx(4.0))  # 3 + 1
    assert rec.count_under("a", "b") == 1
    assert rec.count_under("a", "root") == 1
    assert rec.count_under("a", "missing") == 0


def test_spans_round_trip_through_file(tmp_path):
    rec = spans.SpanRecorder()
    rec.solve_id = 7
    outer = rec.open(rec.name_id("outer"))
    rec.close(rec.open(rec.name_id("inner")))
    rec.close(outer)
    rec.write(tmp_path / "s.bin", {"workload": "w"})
    head, back = spans.read_spans(tmp_path / "s.bin")
    assert head["workload"] == "w" and head["count"] == 2
    assert back.names == ["outer", "inner"]
    assert list(back.parent) == [-1, 0] and list(back.solve) == [7, 7]
    assert back.totals().keys() == rec.totals().keys()


def test_tracer_records_and_restores_every_attribute():
    import flexshop

    inst = flexshop.load_bundled("toy2x3")
    before = spans.attribute_snapshot()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert spans.changed_attributes(before)  # the wrappers are in place
        flexshop.make_solver("fifo").fit(inst)
        flexshop.make_solver("rl", episodes=3, test_interval=1).fit(inst)
    finally:
        tracer.restore()
    assert spans.changed_attributes(before) == []
    totals = tracer.rec.totals()
    assert totals["solvers.fit"][0] == 2
    assert totals["baselines.fifo"][0] == 1
    assert totals["prepopulate.backward_pass"][0] == 3
    assert tracer.pairs_visited > 0
    assert tracer.legal_counts and min(tracer.legal_counts) >= 1
    (report, _), = tracer.reports
    raw = sum(t - report.episode_times[episode - 1]
              for (episode, _), t in zip(report.test_makespans, report.test_times))
    assert 0 < tracer.greedy_test_seconds() < raw  # backward passes taken out


# -- generators -----------------------------------------------------------


def test_generators_are_deterministic_per_seed():
    assert generators.tiny_text(5) == generators.tiny_text(5)
    assert generators.tiny_text(5) != generators.tiny_text(6)
    assert generators.large_text(3, 20, 8) == generators.large_text(3, 20, 8)
    assert generators.large_text(3, 20, 8) != generators.large_text(4, 20, 8)
    assert generators.tiny_pool(4) == generators.tiny_pool(4)


def test_tiny_generator_matches_criterion_one():
    spec = importlib.util.spec_from_file_location(
        "criterion_conftest", ROOT / "tests" / "conftest.py")
    conftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(conftest)
    from flexshop import parse_instance

    for seed in range(20):
        expected = conftest.tiny_instance(seed)
        got = parse_instance(generators.tiny_text(seed), name=expected.name)
        assert got == expected


def test_pool_and_large_shapes():
    import flexshop

    n = workloads.ORACLE_PER_JOB_COUNT
    pool = [flexshop.parse_instance(text) for _, text in generators.tiny_pool(n)]
    assert [i.job_count for i in pool] == [3] * n + [4] * n
    assert max(i.total_operations for i in pool) <= generators.MAX_OPERATIONS
    ops = {flexshop.parse_instance(generators.large_text(s, 30, 10)).total_operations
           for s in range(5)}
    assert len(ops) == 1  # same work per size whatever the seed


def test_lower_bound_holds_on_known_optima():
    import flexshop

    for name, optimum in workloads.OPTIMA.items():
        assert workloads.lower_bound(flexshop.load_bundled(name)) <= optimum
    assert workloads.lower_bound(flexshop.load_bundled("la05")) == 572


# -- whole runs -----------------------------------------------------------


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300)


def test_benchmark_json_lists_the_reported_per_layer_metrics():
    assert [m["name"] for m in BENCHMARK["per_layer"]] == \
        [name for name, _ in workloads.PER_LAYER]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.5",
                "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    kind = "end_to_end" if trace == "0" else "per_layer"
    expected = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
        named = {"rl-bundled": ["episodes_per_s", "time_to_target_s"],
                 "oracle-tiny": ["oracle_solve_s_p50", "oracle_solve_s_p80"],
                 "baselines-large": ["ga_generations_per_s",
                                     "dispatch_schedules_per_s"]}[workload]
        assert all(name in proc.stdout for name in named)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "oracle-tiny", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
