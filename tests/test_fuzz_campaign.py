"""The differential fuzzing campaign plane.

Covers the two new spec kinds end to end: ``fuzz_point`` envelopes (both
oracle verdicts, sha drift detection, warm store hits), ``fuzz_campaign``
envelopes (coverage census, budget stop, metrics and spans, shrunk
disagreements under an injected oracle fault), and the kill-and-resume
acceptance path -- a 500-program campaign SIGKILLed mid-run resumes via
``repro fuzz --resume`` recomputing only the points never checkpointed,
with zero disagreements.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.engine import Engine
from repro.fuzz import (
    FUZZ_EVENTS,
    FuzzCampaign,
    fuzz_events_counter,
    make_case,
    point_spec,
)
from repro.obs import Tracer
from repro.scenario import ScenarioSpec
from repro.store import MemoryStore

pytestmark = pytest.mark.fuzz


def _events(engine) -> dict:
    counter = fuzz_events_counter(engine.metrics)
    return {labels[0]: value for labels, value in counter.series().items()}


class TestFuzzPointSpec:
    def test_point_envelope_carries_both_verdicts(self):
        result = Engine().run(ScenarioSpec("fuzz_point", seed=4, index=2))
        data = result.data
        assert result.kind == "fuzz_point"
        assert result.ok and data["agrees"]
        assert data["tsg_leaks"] == data["transmit_beats_squash"]
        assert {"seed", "index", "sha", "bucket", "source", "delay",
                "channel", "fence"} <= set(data)
        assert data["sha"] == make_case(4, 2).sha

    def test_points_checkpoint_and_serve_warm(self):
        engine = Engine(store=MemoryStore())
        spec = point_spec(4, 2)
        cold = engine.run(spec)
        warm = engine.run(spec)
        assert cold.cache == "cold"
        assert warm.cache == "warm"
        assert warm.data == cold.data

    def test_sha_pin_detects_generator_drift(self):
        stale = point_spec(4, 2, sha="0" * 64)
        with pytest.raises(ValueError, match="generator drift"):
            Engine().run(stale)

    def test_secret_threads_through_to_the_recovered_byte(self):
        engine = Engine()
        for index in range(8):
            result = engine.run(
                ScenarioSpec("fuzz_point", seed=4, index=index, secret=0x7F)
            )
            if result.data["tsg_leaks"]:
                assert result.data["recovered"] == 0x7F
                assert result.data["leaked_secret"]
                return
        pytest.fail("no leaking point in the sampled slice")


class TestFuzzCampaign:
    def test_clean_campaign_envelope(self):
        engine = Engine()
        result = engine.run(ScenarioSpec("fuzz_campaign", seed=0, count=20))
        data = result.data
        assert result.ok
        assert data["generated"] == data["executed"] == 20
        assert data["agreed"] == 20
        assert data["disagreed"] == data["quarantined"] == 0
        assert data["buckets"] == len(data["coverage"])
        assert sum(data["coverage"].values()) == 20
        events = _events(engine)
        assert events["generated"] == 20
        assert events["agreed"] == 20
        assert events["novel"] == data["buckets"]
        assert events["disagreed"] == events["shrunk"] == 0

    def test_campaign_envelope_is_warm_on_replay(self):
        engine = Engine(store=MemoryStore())
        cold = engine.run_fuzz_campaign(seed=1, count=12)
        warm = engine.run_fuzz_campaign(seed=1, count=12)
        assert cold.cache == "none"  # aggregate envelope, computed live
        assert warm.cache == "warm"
        assert warm.data == cold.data

    def test_refresh_resumes_from_point_checkpoints(self):
        engine = Engine(store=MemoryStore())
        cold = engine.run_fuzz_campaign(seed=1, count=12)
        seen = []
        resumed = engine.run_fuzz_campaign(
            seed=1, count=12, refresh=True, on_point=seen.append
        )
        assert resumed.cache == "none"  # the aggregate was recomputed ...
        assert engine.stats()["grid"]["resumed"] == 12  # ... the points not
        assert len(seen) == 12
        assert resumed.data["coverage"] == cold.data["coverage"]

    def test_spent_budget_stops_before_the_first_chunk(self):
        # Generating 50 programs alone outlasts a nanosecond budget.
        result = Engine().run_fuzz_campaign(seed=0, count=50, budget=1e-9)
        assert result.data["executed"] == 0
        assert result.data["budget_exhausted"]
        assert result.ok  # nothing disagreed, nothing quarantined

    @pytest.mark.parametrize("budget", [0, 0.0, -1])
    def test_non_positive_budget_is_rejected(self, budget):
        with pytest.raises(ValueError, match="budget must be > 0"):
            Engine().run_fuzz_campaign(seed=0, count=4, budget=budget)

    def test_sharded_campaign_matches_serial(self):
        stable = (
            "seed", "count", "generated", "executed", "agreed", "disagreed",
            "quarantined", "coverage", "buckets",
        )
        serial = Engine().run_fuzz_campaign(seed=2, count=12)
        sharded = Engine().run_fuzz_campaign(seed=2, count=12, parallel=2)
        assert {k: serial.data[k] for k in stable} == {
            k: sharded.data[k] for k in stable
        }

    def test_campaign_emits_generate_and_point_spans(self):
        engine = Engine()
        tracer = Tracer()  # collect mode
        engine.tracer = tracer
        engine.run_fuzz_campaign(seed=0, count=6, refresh=True)
        names = [record["name"] for record in tracer.drain()]
        assert "fuzz.generate" in names
        assert names.count("fuzz.point") == 6

    def test_events_counter_is_pretouched_and_idempotent(self):
        engine = Engine()
        first = fuzz_events_counter(engine.metrics)
        assert first is fuzz_events_counter(engine.metrics)
        assert set(_events(engine)) == set(FUZZ_EVENTS)
        assert all(value == 0 for value in _events(engine).values())

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError, match="count"):
            FuzzCampaign(Engine(), seed=0, count=0)

    def test_distinct_counts_the_executed_programs(self):
        data = Engine().run_fuzz_campaign(seed=3, count=40).data
        assert data["distinct"] == len({make_case(3, i).sha for i in range(40)})
        assert data["distinct"] <= data["executed"]

    def test_secret_wider_than_a_byte_is_rejected_up_front(self):
        with pytest.raises(ValueError, match="not one byte"):
            FuzzCampaign(Engine(), seed=0, count=4, secret=300)


class TestFuzzVerdictMemo:
    """A repeated program is one verdict per session, served warm."""

    def test_campaign_runs_one_verdict_per_distinct_program(self, monkeypatch):
        import repro.fuzz.generator as generator

        calls = []
        real = generator.dual_verdict

        def counting(case, **kwargs):
            calls.append((case.sha, kwargs["secret"], kwargs["inject"], kwargs["model"]))
            return real(case, **kwargs)

        monkeypatch.setattr(generator, "dual_verdict", counting)
        engine = Engine()
        data = engine.run_fuzz_campaign(seed=0, count=600).data
        distinct = len({make_case(0, index).sha for index in range(600)})
        assert len(calls) == len(set(calls)) == distinct == data["distinct"]
        assert distinct < 600  # the campaign does repeat programs
        assert engine.stats()["fuzz_verdicts"] == {
            "entries": distinct, "hits": 600 - distinct, "misses": distinct,
        }

    def test_memoized_points_equal_fresh_engine_runs(self):
        engine = Engine()
        states = []
        for index in range(60):
            spec = point_spec(1, index)
            result = engine.run(spec)
            states.append(result.cache)
            assert result.data == Engine().run(spec).data
        assert "warm" in states  # some programs repeat within the slice

    def test_inject_and_model_are_part_of_the_key(self):
        engine = Engine()
        assert engine.run(point_spec(0, 0)).cache == "cold"
        assert engine.run(point_spec(0, 0, inject="no_flush")).cache == "cold"
        assert engine.run(point_spec(0, 0, model="contended")).cache == "cold"
        assert engine.run(point_spec(0, 0, secret=0x11)).cache == "cold"
        for spec in (
            point_spec(0, 0),
            point_spec(0, 0, inject="no_flush"),
            point_spec(0, 0, model="contended"),
            point_spec(0, 0, secret=0x11),
        ):
            assert engine.run(spec).cache == "warm"
        assert engine.stats()["fuzz_verdicts"]["entries"] == 4

    def test_cache_limit_and_invalidate(self):
        shas, indexes = set(), []
        for index in range(40):
            sha = make_case(0, index).sha
            if sha not in shas:
                shas.add(sha)
                indexes.append(index)
        first, second, third = indexes[:3]
        engine = Engine(cache_limit=2)
        for index in (first, second, third):
            engine.run(point_spec(0, index))
        assert engine.stats()["fuzz_verdicts"]["entries"] == 2
        assert engine.run(point_spec(0, third)).cache == "warm"
        assert engine.run(point_spec(0, first)).cache == "cold"  # evicted
        assert engine.invalidate("fuzz_verdicts") == 2
        assert engine.stats()["fuzz_verdicts"]["entries"] == 0
        assert engine.run(point_spec(0, third)).cache == "cold"

    def test_drift_check_runs_on_a_warm_program(self):
        engine = Engine()
        engine.run(point_spec(0, 0))
        with pytest.raises(ValueError, match="generator drift"):
            engine.run(point_spec(0, 0, sha="0" * 64))


class TestInjectedDisagreements:
    def test_no_flush_campaign_pins_shrunk_disagreements(self):
        engine = Engine()
        result = engine.run_fuzz_campaign(seed=0, count=30, inject="no_flush")
        data = result.data
        assert not result.ok
        assert data["disagreed"] > 0
        assert data["shrunk"] == min(data["disagreed"], 8)
        events = _events(engine)
        assert events["disagreed"] == data["disagreed"]
        assert events["shrunk"] == data["shrunk"]
        for row in data["disagreements"]:
            assert row["tsg_leaks"] and not row["transmit_beats_squash"]
            assert row["source"] == "bounds_check"  # no_flush only splits these
            shrunk = row.get("shrunk")
            if shrunk:
                assert shrunk["instructions"] <= row["instructions"]
                assert shrunk["shape"]["delay"] == 0
                assert "mov" in shrunk["listing"]

    def test_injection_is_part_of_the_cache_key(self):
        engine = Engine(store=MemoryStore())
        clean = engine.run_fuzz_campaign(seed=0, count=10)
        injected = engine.run_fuzz_campaign(seed=0, count=10, inject="no_flush")
        assert injected.cache != "warm"  # never served the clean envelope
        assert clean.ok and not injected.ok


# ---------------------------------------------------------------------------
# Kill-and-resume acceptance: the ISSUE's two-subprocess scenario.
# ---------------------------------------------------------------------------

CAMPAIGN_SEED = 9
CAMPAIGN_COUNT = 500
HANG_INDEX = 120


def _cli_env() -> dict:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _fuzz_argv(store_dir: str, *extra: str) -> list:
    return [
        sys.executable, "-m", "repro.cli", "fuzz",
        "--seed", str(CAMPAIGN_SEED),
        "--count", str(CAMPAIGN_COUNT),
        "--store", store_dir,
        "--json",
        *extra,
    ]


def _write_hang_plan(tmp_path: Path) -> Path:
    """A plan that hangs the campaign at one fuzz point, forever.

    The match pins the spec *coordinates*, not the program sha -- distinct
    indexes drawing the same shape build the identical program, so a sha
    match would fire at the first duplicate instead.
    """
    plan = tmp_path / "hang.json"
    plan.write_text(json.dumps({
        "faults": [{
            "kind": "hang",
            "match": f"index={HANG_INDEX};seed={CAMPAIGN_SEED};",
            "hang_seconds": 120.0,
        }],
    }))
    return plan


def _entries(store_dir: str) -> int:
    return len(list(Path(store_dir).rglob("*.pkl")))


@pytest.mark.fuzz(timeout=180.0)
class TestKillAndResume:
    def test_sigkilled_campaign_resumes_with_zero_disagreements(self, tmp_path):
        store_dir = str(tmp_path / "cache")
        process = subprocess.Popen(
            _fuzz_argv(store_dir, "--faults", str(_write_hang_plan(tmp_path))),
            env=_cli_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        # The campaign runs its points in index order and hangs at
        # HANG_INDEX, so exactly that many checkpoints become durable.
        deadline = time.monotonic() + 90.0
        while time.monotonic() < deadline:
            if _entries(store_dir) >= HANG_INDEX:
                break
            if process.poll() is not None:
                out, err = process.communicate()
                raise AssertionError(
                    f"campaign exited early (rc={process.returncode}): {err}"
                )
            time.sleep(0.05)
        else:
            process.kill()
            raise AssertionError("campaign never reached the hang watermark")
        os.kill(process.pid, signal.SIGKILL)
        process.wait(timeout=30)
        assert _entries(store_dir) == HANG_INDEX

        completed = subprocess.run(
            _fuzz_argv(store_dir, "--resume"),
            env=_cli_env(),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        envelope = json.loads(completed.stdout)
        data = envelope["data"]
        assert data["executed"] == CAMPAIGN_COUNT
        assert data["disagreed"] == 0
        assert data["quarantined"] == 0
        recomputed = CAMPAIGN_COUNT - HANG_INDEX
        assert (
            f"resume: {HANG_INDEX}/{CAMPAIGN_COUNT} points served from "
            f"checkpoints, {recomputed} recomputed, 0 quarantined"
        ) in completed.stderr
        # One durable envelope per point plus the campaign envelope itself:
        # the checkpoints that survived the kill were never rewritten.
        assert _entries(store_dir) == CAMPAIGN_COUNT + 1
