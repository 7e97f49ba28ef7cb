"""The unified tracing + metrics plane (``repro.obs``).

Unit tests cover the tracer (span stacks, detached spans, collect/absorb,
the JSONL sink) and the metrics registry (integer preservation, label
series, Prometheus rendering); the ``obs``-marked tests drive real pool
workers and the in-process analysis service, including the acceptance
test that reconstructs a 50-point campaign's request -> worker critical
path from one trace file.
"""

from __future__ import annotations

import asyncio
import io
import json
import os
from types import SimpleNamespace

import pytest

from repro.cli import main
from repro.engine import Engine, FailurePolicy
from repro.faults import FaultInjected, FaultPlan, FaultSpec
from repro.obs import (
    MetricsRegistry,
    ProgressLine,
    Tracer,
    critical_path,
    read_trace,
    render_registries,
    summarize,
    summarize_file,
)
from repro.obs.trace import NULL_SPAN
from repro.scenario import ScenarioGrid, ScenarioSpec
from repro.service import AnalysisService, ServiceClient, ServiceConfig, ServiceThread
from repro.store import MemoryStore


def _spec(secret: int = 0x41) -> ScenarioSpec:
    return ScenarioSpec("exploit", exploit="spectre_v1", secret=secret)


def _grid(points: int = 6) -> ScenarioGrid:
    return ScenarioGrid(
        "exploit",
        base={"exploit": "spectre_v1"},
        axes={"secret": list(range(points))},
    )


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------
class TestTracer:
    def test_nested_spans_parent_on_the_thread_stack(self, tmp_path):
        sink = tmp_path / "trace.jsonl"
        tracer = Tracer(sink=str(sink))
        with tracer.span("outer", kind="demo") as outer:
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
        tracer.close()
        records = {r["name"]: r for r in read_trace(sink)}
        assert records["inner"]["parent"] == records["outer"]["span"]
        assert records["outer"]["parent"] is None
        assert records["outer"]["attrs"] == {"kind": "demo"}
        assert records["outer"]["trace"] == records["inner"]["trace"]
        assert records["inner"]["dur_ms"] >= 0.0

    def test_detached_spans_never_join_the_stack(self):
        tracer = Tracer()  # collect mode
        with tracer.span("root") as root:
            detached = tracer.span("detached", detached=True)
            # The stack still points at root: a sibling opened now must
            # not parent on the detached span.
            with tracer.span("sibling") as sibling:
                assert sibling.parent_id == root.span_id
            assert detached.parent_id == root.span_id
            tracer.finish(detached)
        assert len(tracer.drain()) == 3

    def test_collect_mode_drain_and_absorb_roundtrip(self, tmp_path):
        worker = Tracer(trace_id="abc123", )
        ctx_parent = None
        with worker.span("worker.point", parent=ctx_parent, key="k1"):
            pass
        harvested = worker.drain()
        assert worker.drain() == []  # drained exactly once

        sink = tmp_path / "absorbed.jsonl"
        parent = Tracer(sink=str(sink))
        assert parent.absorb(harvested) == 1
        parent.close()
        records = read_trace(sink)
        assert [r["name"] for r in records] == ["worker.point"]
        assert records[0]["trace"] == "abc123"

    def test_disabled_tracer_costs_nothing_and_emits_nothing(self):
        tracer = Tracer(enabled=False)
        span = tracer.span("anything", attr=1)
        assert span is NULL_SPAN
        with span:
            assert span.set(more=2) is NULL_SPAN
        assert tracer.current_context() is None
        assert tracer.emitted == 0
        assert tracer.drain() == []

    def test_exception_inside_span_records_error_attr(self, tmp_path):
        sink = tmp_path / "err.jsonl"
        tracer = Tracer(sink=str(sink))
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        tracer.close()
        (record,) = read_trace(sink)
        assert record["attrs"]["error"] == "RuntimeError"

    def test_buffer_flushes_at_limit_without_close(self, tmp_path):
        sink = tmp_path / "buffered.jsonl"
        tracer = Tracer(sink=str(sink), buffer_limit=2)
        with tracer.span("one"):
            pass
        assert not sink.exists() or sink.read_text() == ""
        with tracer.span("two"):
            pass
        assert len(read_trace(sink)) == 2  # limit hit: flushed pre-close
        tracer.close()

    def test_current_context_without_open_span_still_names_the_trace(self):
        tracer = Tracer(trace_id="t1")
        context = tracer.current_context()
        assert context.trace_id == "t1"
        assert context.parent_id is None


class TestTracerSampling:
    def test_rate_zero_drops_every_tree(self):
        tracer = Tracer(sample_rate=0.0)
        for _ in range(10):
            with tracer.span("root"):
                with tracer.span("child"):
                    pass
        assert tracer.emitted == 0
        assert tracer.drain() == []

    def test_rate_one_keeps_every_tree(self):
        tracer = Tracer(sample_rate=1.0)
        for _ in range(5):
            with tracer.span("root"):
                with tracer.span("child"):
                    pass
        assert tracer.emitted == 10

    def test_trees_are_kept_or_dropped_atomically(self):
        """Half-rate sampling keeps whole trees: every kept root arrives
        with exactly its children, never a child without its root."""
        tracer = Tracer(sample_rate=0.5, sample_seed=42)
        trees = 200
        for index in range(trees):
            with tracer.span("root", index=index):
                with tracer.span("child"):
                    with tracer.span("grandchild"):
                        pass
        records = tracer.drain()
        roots = [r for r in records if r["name"] == "root"]
        children = [r for r in records if r["name"] == "child"]
        grandchildren = [r for r in records if r["name"] == "grandchild"]
        assert 0 < len(roots) < trees  # actually sampled
        assert len(children) == len(grandchildren) == len(roots)
        by_id = {r["span"]: r for r in records}
        for child in children + grandchildren:
            assert child["parent"] in by_id  # no orphans, ever

    def test_sample_seed_makes_decisions_reproducible(self):
        def kept(seed):
            tracer = Tracer(sample_rate=0.5, sample_seed=seed)
            decisions = []
            for index in range(64):
                with tracer.span("root", index=index):
                    pass
            return [r["attrs"]["index"] for r in tracer.drain()]

        assert kept(7) == kept(7)
        assert kept(7) != kept(8)

    def test_dropped_tree_ships_no_cross_process_context(self):
        """Inside a sampled-out tree the hop context is None: workers run
        untraced rather than orphan half a tree."""
        tracer = Tracer(sample_rate=0.0)
        with tracer.span("root"):
            assert tracer.current_context() is None
            detached = tracer.span("shard", detached=True)
            assert detached.context() is None
            tracer.finish(detached)
        # Once the dropped tree closes, sampling decides afresh.
        context = tracer.current_context()
        assert context is not None and context.parent_id is None

    def test_drop_depth_survives_out_of_order_finishes(self):
        tracer = Tracer(sample_rate=0.0)
        root = tracer.span("root")
        child = tracer.span("child")
        root.__exit__(None, None, None)
        child.__exit__(None, None, None)
        child.__exit__(None, None, None)  # double-finish is a no-op
        with tracer.span("next"):  # still a cleanly dropped fresh tree
            pass
        assert tracer.emitted == 0

    def test_invalid_rate_is_rejected(self):
        with pytest.raises(ValueError, match="sample_rate"):
            Tracer(sample_rate=1.5)
        with pytest.raises(ValueError, match="sample_rate"):
            Tracer(sample_rate=-0.1)

    def test_explicitly_parented_spans_bypass_head_sampling(self):
        """A span parented on a shipped context is never a tree root: the
        worker side must honor the parent's keep decision, not re-draw."""
        from repro.obs.trace import TraceContext

        tracer = Tracer(sample_rate=0.0)
        context = TraceContext("t1", "parent-span")
        with tracer.span("worker.point", parent=context):
            pass
        (record,) = tracer.drain()
        assert record["parent"] == "parent-span"


# ---------------------------------------------------------------------------
# Metrics registry + Prometheus rendering
# ---------------------------------------------------------------------------
class TestMetrics:
    def test_counter_integer_increments_stay_integers(self):
        counter = MetricsRegistry().counter("c_total", labelnames=("kind",))
        counter.inc(kind="a")
        counter.inc(2, kind="a")
        value = counter.value(kind="a")
        assert value == 3 and isinstance(value, int)

    def test_counter_rejects_negative_and_wrong_labels(self):
        counter = MetricsRegistry().counter("c_total", labelnames=("kind",))
        with pytest.raises(ValueError):
            counter.inc(-1, kind="a")
        with pytest.raises(ValueError):
            counter.inc(bogus="a")

    def test_registry_get_or_create_is_idempotent_but_conflict_safe(self):
        registry = MetricsRegistry()
        first = registry.counter("x_total", labelnames=("k",))
        assert registry.counter("x_total", labelnames=("k",)) is first
        with pytest.raises(ValueError):
            registry.gauge("x_total")
        with pytest.raises(ValueError):
            registry.counter("x_total", labelnames=("other",))

    def test_gauge_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(5)
        gauge.inc()
        gauge.dec(2)
        assert gauge.value() == 4

    def test_histogram_renders_cumulative_le_buckets(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat_ms", buckets=(1, 10, 100))
        for value in (0.5, 5, 5, 500):
            histogram.observe(value)
        text = registry.render()
        assert 'lat_ms_bucket{le="1.0"} 1' in text
        assert 'lat_ms_bucket{le="10.0"} 3' in text
        assert 'lat_ms_bucket{le="100.0"} 3' in text
        assert 'lat_ms_bucket{le="+Inf"} 4' in text
        assert "lat_ms_count 4" in text
        assert "lat_ms_sum 510.5" in text

    def test_render_prometheus_text_shape(self):
        registry = MetricsRegistry()
        counter = registry.counter(
            "repro_demo_total", help="demo counter", labelnames=("kind",)
        )
        counter.inc(kind='quo"ted')
        text = registry.render()
        assert "# HELP repro_demo_total demo counter" in text
        assert "# TYPE repro_demo_total counter" in text
        assert 'repro_demo_total{kind="quo\\"ted"} 1' in text
        assert text.endswith("\n")

    def test_render_registries_dedupes_names_and_runs_collectors(self):
        first, second = MetricsRegistry(), MetricsRegistry()
        first.counter("shared_total").inc()
        second.counter("shared_total").inc(100)
        pulled = second.gauge("pulled")
        second.register_collector(lambda: pulled.set(7))
        text = render_registries(first, second)
        assert text.count("# TYPE shared_total counter") == 1
        assert "shared_total 1" in text  # first registry wins
        assert "shared_total 100" not in text
        assert "pulled 7" in text  # collector ran on scrape


# ---------------------------------------------------------------------------
# Engine tracing through real pool workers
# ---------------------------------------------------------------------------
@pytest.mark.obs
class TestEngineTracing:
    def test_serial_run_emits_run_and_store_put_spans(self, tmp_path):
        sink = tmp_path / "run.jsonl"
        tracer = Tracer(sink=str(sink))
        engine = Engine(store=MemoryStore(), tracer=tracer)
        result = engine.run(_spec())
        engine.close()
        assert result.ok
        records = {r["name"]: r for r in read_trace(sink)}
        run = records["engine.run"]
        assert run["attrs"]["kind"] == "exploit"
        assert run["attrs"]["cache"] == result.cache
        assert records["store.put"]["parent"] == run["span"]

    @pytest.mark.parametrize(
        "policy", [None, FailurePolicy(retries=1, backoff=0.001, jitter=0.0)]
    )
    def test_sharded_grid_harvests_worker_spans_across_processes(
        self, tmp_path, policy
    ):
        sink = tmp_path / "grid.jsonl"
        tracer = Tracer(sink=str(sink))
        engine = Engine(store=MemoryStore(), parallel=2, tracer=tracer, policy=policy)
        result = engine.run_grid(_grid(6))
        engine.close()
        assert result.ok
        records = read_trace(sink)
        grid_span = next(r for r in records if r["name"] == "engine.iter_grid")
        shards = {r["span"]: r for r in records if r["name"] == "engine.shard"}
        workers = [r for r in records if r["name"] == "worker.point"]
        assert len(workers) == 6
        for record in workers:
            assert record["parent"] in shards
            assert shards[record["parent"]]["parent"] == grid_span["span"]
        # The spans crossed a process boundary and still share one trace.
        assert any(record["pid"] != os.getpid() for record in workers)
        assert {record["trace"] for record in records} == {tracer.trace_id}

    def test_failed_fail_fast_grid_finishes_its_sampled_out_spans(self):
        # Every task span of a sampled-out grid holds the thread's drop
        # depth until it finishes; a leaked one would drop every later span.
        tracer = Tracer(sink=None, sample_rate=0.0)
        faults = FaultPlan([FaultSpec(kind="exception", match="secret=0")])
        with Engine(parallel=2, faults=faults, tracer=tracer) as engine:
            with pytest.raises(FaultInjected):
                engine.run_grid(_grid(4))
        assert tracer.current_context() is not None

    def test_untraced_engine_matches_traced_results(self, tmp_path):
        plain = Engine(store=MemoryStore())
        plain_result = plain.run_grid(_grid(3))
        plain.close()
        tracer = Tracer(sink=str(tmp_path / "t.jsonl"))
        traced = Engine(store=MemoryStore(), tracer=tracer)
        traced_result = traced.run_grid(_grid(3))
        traced.close()
        assert traced_result.data == plain_result.data


# ---------------------------------------------------------------------------
# The acceptance test: 50 points through the service, one trace file
# ---------------------------------------------------------------------------
@pytest.mark.obs
class TestServiceTraceAcceptance:
    def test_fifty_point_campaign_reconstructs_request_to_worker_path(
        self, tmp_path
    ):
        trace_path = tmp_path / "campaign.jsonl"
        points = 50

        async def body():
            engine = Engine(store=MemoryStore(), parallel=2)
            service = AnalysisService(
                engine,
                ServiceConfig(
                    batch_size=16, batch_window=0.01, trace_path=str(trace_path)
                ),
            )
            await service.start(listen=False)
            envelopes = await asyncio.gather(
                *(service.request(_spec(secret)) for secret in range(points))
            )
            await service.drain()
            engine.close()
            return envelopes

        envelopes = asyncio.run(body())
        assert len(envelopes) == points
        assert all(envelope["ok"] for envelope in envelopes)

        records = read_trace(trace_path)
        by_id = {r["span"]: r for r in records}
        by_name: dict = {}
        for record in records:
            by_name.setdefault(record["name"], []).append(record)

        # Every request produced its admission spans.
        assert len(by_name["service.request"]) == points
        assert len(by_name["service.entry"]) == points
        assert len(by_name["service.queue"]) == points
        assert by_name["service.batch"]  # micro-batches dispatched
        assert by_name["engine.iter_grid"]

        # Walk one pool-worker span back to the HTTP-facing request span:
        # worker.point -> engine.shard -> engine.iter_grid -> service.batch
        # -> service.entry -> service.request, crossing a process boundary.
        worker = by_name["worker.point"][0]
        chain = [worker]
        while chain[-1].get("parent"):
            chain.append(by_id[chain[-1]["parent"]])
        names = [record["name"] for record in chain]
        assert names == [
            "worker.point",
            "engine.shard",
            "engine.iter_grid",
            "service.batch",
            "service.entry",
            "service.request",
        ]
        assert chain[0]["pid"] != chain[-1]["pid"]
        assert len({record["trace"] for record in chain}) == 1

        # The digest agrees: multiple processes, a non-empty critical path.
        digest = summarize(records)
        assert digest["spans"] == len(records)
        assert digest["processes"] >= 2
        assert digest["phases"]["worker-point"]["count"] >= 1
        assert critical_path(records)

    def test_service_trace_records_hit_provenance(self, tmp_path):
        """Dedup'd requests trace too: the entry span carries the hit."""
        trace_path = tmp_path / "dedup.jsonl"

        async def body():
            engine = Engine(store=MemoryStore())
            service = AnalysisService(
                engine,
                ServiceConfig(batch_window=0.01, trace_path=str(trace_path)),
            )
            await service.start(listen=False)
            first = await service.request(_spec(7))
            second = await service.request(_spec(7))
            await service.drain()
            engine.close()
            return first, second

        first, second = asyncio.run(body())
        assert first["hit"] == "computed"
        assert second["hit"] in ("memory", "disk")
        entries = [
            r for r in read_trace(trace_path) if r["name"] == "service.entry"
        ]
        assert sorted(e["attrs"]["hit"] for e in entries) == sorted(
            (first["hit"], second["hit"])
        )


# ---------------------------------------------------------------------------
# /metrics over HTTP
# ---------------------------------------------------------------------------
@pytest.mark.obs
@pytest.mark.service
class TestMetricsEndpoint:
    def test_metrics_scrape_is_prometheus_text(self):
        engine = Engine(store=MemoryStore())
        with ServiceThread(engine=engine, config=ServiceConfig()) as handle:
            client = ServiceClient(handle.url)
            envelope = client.run(_spec(0x41).to_dict())
            assert envelope["ok"]
            text = client.metrics()
        engine.close()
        assert "# TYPE repro_service_requests_total counter" in text
        assert "repro_service_requests_total 1" in text
        assert "# TYPE repro_service_request_latency_ms histogram" in text
        assert 'le="+Inf"' in text
        assert "# TYPE repro_engine_runs_total counter" in text
        assert 'repro_engine_runs_total{kind="exploit"} 1' in text
        assert 'repro_engine_store_ops_total{op="puts"} 1' in text
        assert "repro_service_queue_depth 0" in text


# ---------------------------------------------------------------------------
# Load-generator latency breakdown by hit source (satellite)
# ---------------------------------------------------------------------------
@pytest.mark.obs
@pytest.mark.service
class TestLoadgenLatencyBreakdown:
    def test_report_splits_latency_by_hit_source(self):
        from repro.service.loadgen import overlapping_workload, run_load

        engine = Engine(store=MemoryStore())
        workload, unique = overlapping_workload(2, 4, overlap=0.5)
        with ServiceThread(engine=engine, config=ServiceConfig()) as handle:
            report = run_load(handle.url, workload, unique)
        engine.close()
        assert report.completed == 8
        assert report.latency_by_source  # at least the computed source
        assert set(report.latency_by_source) == set(report.hits)
        total = sum(
            entry["count"] for entry in report.latency_by_source.values()
        )
        assert total == report.completed
        for source, entry in report.latency_by_source.items():
            assert entry["count"] == report.hits[source]
            assert 0.0 <= entry["p50_ms"] <= entry["p99_ms"]
            assert entry["mean_ms"] >= 0.0


# ---------------------------------------------------------------------------
# CLI: --trace / --progress / trace summarize
# ---------------------------------------------------------------------------
@pytest.mark.obs
class TestTraceCli:
    def test_run_trace_progress_and_summarize(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        assert main([
            "run", "--kind", "exploit", "--param", "exploit=spectre_v1",
            "--axis", "secret=1,2,3,4", "--parallel", "2",
            "--trace", str(trace), "--progress",
        ]) == 0
        err = capsys.readouterr().err
        assert "[grid] 4/4 points (100%)" in err
        assert "spans written to" in err

        assert main(["trace", "summarize", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "Phase breakdown" in out
        assert "worker-point" in out
        assert "Critical path" in out

        assert main(["trace", "summarize", str(trace), "--json"]) == 0
        digest = json.loads(capsys.readouterr().out)
        assert digest["spans"] == len(read_trace(trace))
        assert digest["processes"] >= 2
        assert digest == json.loads(
            json.dumps(summarize_file(str(trace)), sort_keys=True, default=str)
        )

    def test_trace_summarize_rejects_missing_and_empty_files(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read"):
            main(["trace", "summarize", str(tmp_path / "absent.jsonl")])
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(SystemExit, match="no spans"):
            main(["trace", "summarize", str(empty)])


class TestProgressLine:
    def test_counts_rate_eta_and_quarantines(self):
        stream = io.StringIO()
        progress = ProgressLine(4, stream=stream, min_interval=0.0)
        good = SimpleNamespace(result=SimpleNamespace(kind="exploit"))
        bad = SimpleNamespace(result=SimpleNamespace(kind="error"))
        for point in (good, good, bad, good):
            progress.update(point)
        line = progress.line()
        assert "4/4 points (100%)" in line
        assert "quarantined 1" in line
        assert "ETA 0s" in line
        progress.finish()
        assert stream.getvalue().endswith("\n")

    def test_untyped_updates_count_without_quarantine(self):
        progress = ProgressLine(2, stream=io.StringIO(), min_interval=0.0)
        progress.update()
        progress.update(None)
        assert progress.done == 2
        assert progress.quarantined == 0
        assert "2/2" in progress.line()


# ---------------------------------------------------------------------------
# Engine.stats_delta with provider hooks coming and going (satellite)
# ---------------------------------------------------------------------------
class TestStatsDeltaProviders:
    def test_provider_appearing_between_snapshots_counts_from_zero(self):
        engine = Engine()
        try:
            before = engine.stats_snapshot()
            engine.register_stats(
                "custom", lambda: {"events": 3, "label": "x"}
            )
            delta = Engine.stats_delta(before, engine.stats())
            # Numeric leaves count from zero; non-numeric pass through.
            assert delta["custom"] == {"events": 3, "label": "x"}
        finally:
            engine.close()

    def test_provider_disappearing_between_snapshots_drops_its_section(self):
        engine = Engine()
        try:
            engine.register_stats("custom", lambda: {"events": 2})
            before = engine.stats_snapshot()
            engine.unregister_stats("custom")
            delta = Engine.stats_delta(before, engine.stats())
            assert "custom" not in delta
            assert "runs" in delta  # engine sections survive the unregister
        finally:
            engine.close()

    def test_provider_window_is_differenced_like_engine_counters(self):
        ledger = {"events": 5}
        engine = Engine()
        try:
            engine.register_stats("custom", lambda: dict(ledger))
            before = engine.stats_snapshot()
            ledger["events"] = 9
            delta = Engine.stats_delta(before, engine.stats())
            assert delta["custom"]["events"] == 4
        finally:
            engine.close()
