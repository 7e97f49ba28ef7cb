"""The benchmark's own tests: tiny smoke runs, span arithmetic, wrapper removal.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for entry in (str(HERE), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from harness import END_TO_END, measure, per_layer_metrics  # noqa: E402
from layers import Recorder, Span, covered, layer_totals, leftover_wrappers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_is_correct_and_reports_every_end_to_end_metric(name):
    result, detail = measure(name, 3, 0.0, False, ROOT, tiny=True, probes=0)
    assert result["correct"], detail["problems"]
    assert result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == [metric for metric, _ in END_TO_END]
    assert all(metric["value"] > 0 for metric in result["metrics"].values())
    assert detail["digest"] and detail["stamp"]["fingerprint"]["nproc"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_traced_run_adds_up_and_removes_its_wrappers(name):
    result, detail = measure(name, 3, 0.0, True, ROOT, tiny=True, probes=0)
    assert result["correct"], detail["problems"]
    assert leftover_wrappers() == []
    metrics = {key: value["value"] for key, value in result["metrics"].items()}
    assert list(metrics) == [metric for metric, _ in per_layer_metrics()]
    self_total = sum(value for key, value in metrics.items() if key.endswith(".self_s"))
    assert self_total + metrics["trace.untraced_s"] == pytest.approx(
        metrics["trace.wall_s"], rel=1e-6
    )
    assert metrics["engine.run.calls"] > 0
    assert metrics["trace.overhead_ratio"] > 0


def test_self_time_is_busy_time_minus_child_spans():
    root = Span("engine.run", 0.0, 10.0)
    build = Span("graphtool.build", 1.0, 4.0, parent=root)
    verdict = Span("tsg.verdict", 2.0, 3.0, parent=build)
    run = Span("uarch.functional", 5.0, 9.0, parent=root)
    schedule = Span("timing.schedule", 8.0, 9.0, parent=run)
    later = Span("store.put", 12.0, 13.0)
    spans = [root, build, verdict, run, schedule, later]
    totals = layer_totals(spans)
    assert totals["engine.run"] == [1, 10.0, 3.0]
    assert totals["graphtool.build"] == [1, 3.0, 2.0]
    assert totals["uarch.functional"] == [1, 4.0, 3.0]
    assert totals["timing.schedule"] == [1, 1.0, 1.0]
    assert covered(spans, 0.0, 14.0) == 11.0
    assert sum(entry[2] for entry in totals.values()) == 11.0
    assert covered(spans, 0.0, 12.5) == 10.5


def test_fold_merges_an_override_into_one_span():
    ticks = iter(range(100))
    recorder = Recorder(clock=lambda: float(next(ticks)))

    def base():
        return 1

    wrapped_base = recorder.wrap("uarch.functional", base, fold=True)

    def override():
        return wrapped_base() + 1

    wrapped = recorder.wrap("uarch.functional", override, fold=True)
    assert wrapped() == 2
    assert [span.layer for span in recorder.spans] == ["uarch.functional"]


def test_install_restores_every_original():
    from repro.engine import Engine
    from repro.exploits.harness import EXPLOITS

    before_run = Engine.__dict__["run"]
    before_exploit = EXPLOITS["spectre_v1"]
    recorder = Recorder()
    with recorder.installed():
        assert Engine.__dict__["run"] is not before_run
        assert leftover_wrappers()
    assert Engine.__dict__["run"] is before_run
    assert EXPLOITS["spectre_v1"] is before_exploit
    assert leftover_wrappers() == []


def test_benchmark_json_lists_the_metrics_the_harness_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == per_layer_metrics()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
