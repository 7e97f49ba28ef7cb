"""The four benchmark workloads.

Each workload makes its inputs from the seed (``setup``), opens the
sessions one timed pass needs (``prepare``, untimed), runs the pass
(``run``, timed) and checks every output of the pass against what the
inputs imply.  Every pass of a run repeats the same inputs on fresh
sessions, so each pass starts cold.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

clock = time.perf_counter


@dataclass
class Pass:
    """What one timed pass did and saw."""

    attempted: int
    failed: int
    #: Headline and second rate of the workload, per second.
    primary: float
    secondary: float
    #: Seconds per operation, one sample per operation.
    latencies: List[float]
    #: sha256 over the simulated outputs; equal on every pass of a seed.
    digest: str
    #: Counts the pass observed itself (per-layer metrics).
    counts: Dict[str, float] = field(default_factory=dict)
    #: Failed correctness checks, as readable lines.
    problems: List[str] = field(default_factory=list)
    #: Seconds the harness's reference computation took beside this pass.
    reference: float = 0.0


def digest(value: object) -> str:
    blob = json.dumps(value, sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


class Workload:
    name = ""
    #: The issue-level names of ``primary`` / ``secondary`` / latency.
    primary_name = ""
    secondary_name = ""
    latency_name = ""

    def __init__(self, seed: int, work_dir: Path, tiny: bool = False) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.tiny = tiny
        self._passes = 0

    def setup(self) -> None:
        """Make the inputs from the seed and verify them."""

    def prepare(self, full: bool = False) -> dict:
        """Untimed: open the sessions of one pass; ``full`` adds the extra
        phases the traced run measures."""
        return {}

    def run(self, state: dict) -> Pass:
        raise NotImplementedError

    def cleanup(self, state: dict) -> None:
        """Untimed: close the sessions of one pass."""

    def _pass_dir(self) -> Path:
        self._passes += 1
        return self.work_dir / f"pass-{self._passes}"


def _intervals(start: float, stamps: List[float]) -> List[float]:
    out = []
    previous = start
    for stamp in stamps:
        out.append(stamp - previous)
        previous = stamp
    return out


# ---------------------------------------------------------------------------
class Fuzz(Workload):
    """One serial differential fuzz campaign per pass, no store."""

    name = "fuzz"
    primary_name = "fuzz.distinct_per_s"
    secondary_name = "fuzz.programs_per_s"
    latency_name = "fuzz.point_latency"

    def setup(self) -> None:
        from repro.fuzz import make_case

        self.count = 12 if self.tiny else 600
        self.shas = [make_case(self.seed, i).sha for i in range(self.count)]
        again = [make_case(self.seed, i).sha for i in range(self.count)]
        if again != self.shas:
            raise RuntimeError("make_case is not a pure function of (seed, index)")
        self.distinct = len(set(self.shas))

    def prepare(self, full: bool = False) -> dict:
        from repro.engine import Engine

        return {"engine": Engine()}

    def run(self, state: dict) -> Pass:
        engine = state["engine"]
        points = []
        stamps = []

        def on_point(point) -> None:
            stamps.append(clock())
            points.append(point.result)

        start = clock()
        result = engine.run_fuzz_campaign(
            seed=self.seed, count=self.count, on_point=on_point
        )
        wall = clock() - start
        problems = []
        data = result.data
        if data["executed"] != self.count or len(points) != self.count:
            problems.append(f"executed {data['executed']} of {self.count} programs")
        if data["disagreed"] or data["quarantined"]:
            problems.append(
                f"{data['disagreed']} disagreements, {data['quarantined']} quarantined"
            )
        rows = []
        failed = 0
        for point in points:
            row = point.data
            if point.kind == "error":
                failed += 1
                continue
            verdicts = {row["tsg_leaks"], row["transmit_beats_squash"],
                        row["leaked_secret"]}
            if len(verdicts) != 1 or row["sha"] != self.shas[row["index"]]:
                failed += 1
            rows.append(row)
        if failed:
            problems.append(f"{failed} programs where the oracles disagree")
        rows.sort(key=lambda row: row["index"])
        builds = engine.stats()["builds"]
        return Pass(
            attempted=self.count,
            failed=failed,
            primary=self.distinct / wall,
            secondary=self.count / wall,
            latencies=_intervals(start, stamps),
            digest=digest(rows),
            counts={
                "fuzz.distinct_ratio": self.distinct / self.count,
                "engine.build_hits": builds["hits"],
                "engine.build_misses": builds["misses"],
            },
            problems=problems,
        )

    def cleanup(self, state: dict) -> None:
        state["engine"].close()


# ---------------------------------------------------------------------------
class GridResume(Workload):
    """A cold checkpointed exploit grid on the pool, then resumed from disk."""

    name = "grid_resume"
    primary_name = "grid.cold_points_per_s"
    secondary_name = "grid.resume_points_per_s"
    latency_name = "grid.resume_point_latency"
    #: Pool size: the machine this benchmark was written for has 2 CPUs.
    workers = 2
    #: Resumes per pass, each from a fresh engine and store instance.
    resumes = 4

    def setup(self) -> None:
        from repro.scenario import ScenarioGrid

        rng = random.Random(self.seed)
        # Spectre v4's receiver ignores probe entry 0 (its committed store
        # touches it), so secret 0 never leaks there: secrets are 1..255.
        self.secrets = rng.sample(range(1, 256), 4 if self.tiny else 240)
        self.grid = ScenarioGrid("exploit_suite", axes={"secret": self.secrets})
        hashes = {spec.content_hash() for spec in self.grid.specs()}
        if len(hashes) != len(self.secrets):
            raise RuntimeError("grid points are not distinct")

    def prepare(self, full: bool = False) -> dict:
        from repro.engine import Engine
        from repro.store import DiskStore

        root = self._pass_dir()
        engine = Engine(
            parallel=self.workers, store=DiskStore(root=root, version="cold")
        )
        # Start the pool outside the timed pass (and before any wrapper is
        # installed, so the workers run unwrapped code).
        engine.map(abs, [-1] * self.workers, parallel=self.workers)
        return {"root": root, "engine": engine, "serial": full}

    def run(self, state: dict) -> Pass:
        from repro.engine import Engine
        from repro.store import DiskStore

        root = state["root"]
        points = len(self.secrets)
        start = clock()
        cold = state["engine"].run_grid(self.grid)
        cold_wall = clock() - start
        problems = []
        failed = sum(1 for row in cold.data["rows"] if not row["ok"])
        if failed:
            problems.append(f"{failed} cold points did not recover their secret")
        expected = cold.to_json()
        stamps: List[float] = []
        latencies: List[float] = []
        resume_walls = []
        for _ in range(self.resumes):
            store = DiskStore(root=root, version="cold")
            stamps.clear()
            began = clock()
            resumed = Engine(store=store).run_grid(
                self.grid, on_point=lambda point: stamps.append(clock())
            )
            resume_walls.append(clock() - began)
            latencies.extend(_intervals(began, stamps))
            misses = store.stats()["misses"]
            if misses or resumed.to_json() != expected:
                failed += points
                problems.append(
                    f"resume recomputed {misses} points or changed the rows"
                )
        counts = {"store.bytes": DiskStore(root=root, version="cold").stats()["bytes"]}
        if state["serial"]:
            # The same cold grid in one process: per-point layer numbers and
            # the pool's speed-up over it.
            serial_start = clock()
            serial = Engine(store=DiskStore(root=root, version="serial")).run_grid(
                self.grid
            )
            counts["engine.pool_serial_s"] = clock() - serial_start
            counts["engine.pool_parallel_s"] = cold_wall
            if serial.to_json() != expected:
                failed += points
                problems.append("the serial grid differs from the pool grid")
        return Pass(
            attempted=points * (1 + self.resumes + state["serial"]),
            failed=failed,
            primary=points / cold_wall,
            secondary=points * self.resumes / sum(resume_walls),
            latencies=latencies,
            digest=digest(cold.data["rows"]),
            counts=counts,
            problems=problems,
        )

    def cleanup(self, state: dict) -> None:
        state["engine"].close()
        shutil.rmtree(state["root"], ignore_errors=True)


# ---------------------------------------------------------------------------
#: Gadgets per analyzed program: about 8 TSG vertices each, so the programs
#: run from ~25 to ~250 vertices, on both sides of the numpy closure
#: threshold (64 vertices).
ANALYZE_GADGETS = (3, 4, 5, 6, 8, 10, 12, 14, 16, 20, 24, 30)


def analyze_program_text(seed: int, gadgets: int) -> str:
    """Assembly of ``gadgets`` Listing-1 / Listing-2 style gadgets.

    Half the gadgets are bounds checks, half kernel loads, each with a delay
    chain of 0-2 ALU ops; the seed only permutes kinds and delays, so the
    size and the analysis work are the same for every seed.
    """
    rng = random.Random(seed * 7919 + gadgets)
    kinds = ["bounds"] * ((gadgets + 1) // 2) + ["kernel"] * (gadgets // 2)
    delays = [index % 3 for index in range(gadgets)]
    rng.shuffle(kinds)
    rng.shuffle(delays)
    data = [".data", "probe_array: address=0x1000000 size=1048576 shared"]
    text = [".text", "    clflush [probe_array]"]
    for g, (kind, delay) in enumerate(zip(kinds, delays)):
        if kind == "bounds":
            base = 0x200000 + g * 0x1000
            data += [
                f"victim_{g}: address={base:#x} size=16",
                f"secret_{g}: address={base + 0x48:#x} size=1 protected",
                f"size_{g}: address={0x400000 + g * 0x100:#x} size=8",
            ]
            text += [
                f"    cmp rdx, [size_{g}]",
                f"    ja done_{g}",
                f"    mov rax, byte [victim_{g} + rdx]",
            ]
        else:
            data.append(
                f"ksecret_{g}: address={0xFFFF0000 + g * 0x100:#x} "
                "size=64 kernel protected"
            )
            text.append(f"    mov rax, byte [ksecret_{g}]")
        text += ["    add rax, 0"] * delay
        text += ["    shl rax, 12", "    mov rbx, [probe_array + rax]"]
        if kind == "bounds":
            text.append(f"done_{g}:")
    text.append("    hlt")
    return "\n".join(data + text) + "\n"


class Analyze(Workload):
    """Figure-9 analysis of seeded programs: each once cold, then warm."""

    name = "analyze"
    primary_name = "analyze.cold_per_s"
    secondary_name = "analyze.warm_per_s"
    latency_name = "analyze.request_latency"
    #: Warm requests per program per pass.
    warm_rounds = 9

    def setup(self) -> None:
        from repro.isa.assembler import assemble

        sizes = (3, 8) if self.tiny else ANALYZE_GADGETS
        self.texts = [analyze_program_text(self.seed, size) for size in sizes]
        hashes = set()
        for size, text in zip(sizes, self.texts):
            program = assemble(text, name="bench")
            if sum(1 for line in text.splitlines() if "shl rax, 12" in line) != size:
                raise RuntimeError(f"program of {size} gadgets is malformed")
            hashes.add(program.content_hash())
        if len(hashes) != len(self.texts):
            raise RuntimeError("analyze programs are not distinct")

    def prepare(self, full: bool = False) -> dict:
        from repro.engine import Engine

        return {"engine": Engine()}

    def run(self, state: dict) -> Pass:
        from repro.scenario import ScenarioSpec

        engine = state["engine"]
        latencies = []
        cold = []
        start = clock()
        for text in self.texts:
            began = clock()
            cold.append(engine.run(ScenarioSpec("analyze", program=text)))
            latencies.append(clock() - began)
        cold_wall = clock() - start
        problems = []
        failed = sum(
            1 for result in cold if result.cache != "cold" or not result.data["findings"]
        )
        warm_start = clock()
        for _ in range(self.warm_rounds):
            for text, reference in zip(self.texts, cold):
                began = clock()
                result = engine.run(ScenarioSpec("analyze", program=text))
                latencies.append(clock() - began)
                if result.cache != "warm" or result.data != reference.data:
                    failed += 1
        warm_wall = clock() - warm_start
        if failed:
            problems.append(f"{failed} analyses were not cold-then-warm-identical")
        warm = len(self.texts) * self.warm_rounds
        return Pass(
            attempted=len(self.texts) + warm,
            failed=failed,
            primary=len(self.texts) / cold_wall,
            secondary=warm / warm_wall,
            latencies=latencies,
            digest=digest([result.data for result in cold]),
            counts={
                "engine.build_hits": engine.stats()["builds"]["hits"],
                "engine.build_misses": engine.stats()["builds"]["misses"],
            },
            problems=problems,
        )

    def cleanup(self, state: dict) -> None:
        state["engine"].close()


# ---------------------------------------------------------------------------
class Service(Workload):
    """Two closed-loop clients against an in-process analysis service."""

    name = "service"
    primary_name = "service.requests_per_s"
    secondary_name = "service.unique_per_s"
    latency_name = "service.request_latency"
    clients = 2
    #: Attempts per request while the service answers 503.
    attempts = 5

    def setup(self) -> None:
        from repro.engine import Engine
        from repro.exploits.harness import EXPLOITS
        from repro.scenario import ScenarioSpec

        # 250 requests per client leave enough samples in one pass for its
        # own 99th percentile.
        per_client = 6 if self.tiny else 250
        shared_count = per_client // 2
        private_count = per_client - shared_count
        names = sorted(EXPLOITS)
        rng = random.Random(self.seed)
        total = shared_count + self.clients * private_count
        # Every exploit equally often, each with distinct seeded secrets.
        secrets = {name: rng.sample(range(1, 256), 255) for name in names}
        specs = []
        for index in range(total):
            name = names[index % len(names)]
            specs.append({"kind": "exploit", "params": {
                "exploit": name, "secret": secrets[name][index // len(names)]}})
        rng.shuffle(specs)
        shared = specs[:shared_count]
        self.requests = []
        for client in range(self.clients):
            base = shared_count + client * private_count
            private = specs[base : base + private_count]
            mine = []
            for index in range(per_client):  # shared, private, shared, ...
                source = shared if index % 2 == 0 else private
                mine.append(source[index // 2])
            self.requests.append(mine)
        self.unique = total
        # The reference envelopes: every distinct spec run in-process.
        engine = Engine()
        self.reference = {}
        for payload in specs:
            spec = ScenarioSpec(payload["kind"], **payload["params"])
            data = engine.run(spec).data
            self.reference[spec.content_hash()] = json.loads(json.dumps(data))
        engine.close()

    def prepare(self, full: bool = False) -> dict:
        from repro.engine import Engine
        from repro.service.server import ServiceConfig, ServiceThread
        from repro.store import DiskStore

        root = self._pass_dir()
        engine = Engine(store=DiskStore(root=root, version="service"))
        config = ServiceConfig(queue_depth=2 * sum(map(len, self.requests)))
        handle = ServiceThread(engine=engine, config=config).start()
        return {"root": root, "engine": engine, "handle": handle}

    def _client(self, url: str, requests: List[dict], out: dict, barrier) -> None:
        """One closed-loop client: the next request waits for the reply."""
        from repro.service.client import ServiceClient, ServiceError

        client = ServiceClient(url, timeout=60.0)
        barrier.wait()
        for payload in requests:
            began = clock()
            envelope = None
            answered = True
            for attempt in range(self.attempts):
                out["retries"] += attempt > 0
                try:
                    envelope = client.run(payload)
                    break
                except ServiceError as exc:
                    answered = False
                    if exc.status != 503:
                        break
                    out["rejected"] += 1
                    time.sleep(min(exc.retry_after or 0.05, 0.2))
                except OSError:
                    answered = False
                    break
            out["latencies"].append(clock() - began)
            # A request that ever saw a non-200 answer counts as failed.
            out["answers"].append(envelope if answered else None)

    def run(self, state: dict) -> Pass:
        url = state["handle"].url
        barrier = threading.Barrier(self.clients + 1)
        outs = [
            {"latencies": [], "answers": [], "rejected": 0, "retries": 0}
            for _ in range(self.clients)
        ]
        threads = [
            threading.Thread(
                target=self._client, args=(url, requests, out, barrier), daemon=True
            )
            for requests, out in zip(self.requests, outs)
        ]
        for thread in threads:
            thread.start()
        barrier.wait()
        start = clock()
        for thread in threads:
            thread.join(timeout=120.0)
        wall = clock() - start
        problems = []
        if any(thread.is_alive() for thread in threads):
            problems.append("a client did not finish within 120 s")
        requests = sum(map(len, self.requests))
        failed = requests - sum(len(out["answers"]) for out in outs)
        answers = {}
        for out in outs:
            for envelope in out["answers"]:
                key = envelope["spec"]["content_hash"] if envelope else None
                if envelope is None or envelope["result"]["data"] != self.reference.get(key):
                    failed += 1
                else:
                    answers[key] = envelope["result"]["data"]
        if failed:
            problems.append(f"{failed} requests failed or differ from the in-process run")
        runs = state["engine"].stats()["runs"].get("exploit", 0)
        if runs != self.unique:
            failed += 1
            problems.append(f"the engine ran {runs} specs for {self.unique} unique specs")
        latencies = [sample for out in outs for sample in out["latencies"]]
        return Pass(
            attempted=requests,
            failed=failed,
            primary=requests / wall,
            secondary=self.unique / wall,
            latencies=latencies,
            digest=digest(sorted(answers.items())),
            counts={
                "service.rejected": sum(out["rejected"] for out in outs),
                "service.retries": sum(out["retries"] for out in outs),
                "service.dedup_ratio": runs / requests,
                "service.client_latency_s": sum(latencies),
                "store.bytes": state["engine"].store.stats()["bytes"],
            },
            problems=problems,
        )

    def cleanup(self, state: dict) -> None:
        state["handle"].stop()
        state["engine"].close()
        shutil.rmtree(state["root"], ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (Fuzz, GridResume, Analyze, Service)}
