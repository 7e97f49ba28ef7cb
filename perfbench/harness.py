"""One benchmark run: set-up probes, timed passes or the traced run, report.

``measure`` returns the result object ``run.py`` prints as its last line,
plus a detail record (issue-level metric names, sample counts, the
commit and machine stamp, the digest of the simulated outputs).
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from layers import LAYERS, Recorder, covered, layer_totals
from workloads import WORKLOADS, Pass, Workload

clock = time.perf_counter

HERE = Path(__file__).resolve().parent
#: Set-up probes per run; ``setup_s`` is their median.
PROBES = 3
#: Fewest timed passes (or traced pairs) a run makes, however short.
MIN_PASSES = 3

#: What ``reference_s()`` takes on the machine this benchmark was written on,
#: at its fastest.  The timed end-to-end figures are scaled to this speed:
#: see ``scaled`` and README.md.
NOMINAL_REFERENCE_S = 0.02

#: ``(name, unit)`` of every end-to-end metric, as BENCHMARK.json lists them.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("primary_per_s", "1/s"),
    ("secondary_per_s", "1/s"),
    ("p50_ms", "ms"),
)

#: ``(name, unit)`` of the per-layer metrics besides the layer triples.
LAYER_COUNTS = (
    ("fuzz.distinct_ratio", "ratio"),
    ("graphtool.vertices", "count"),
    ("graphtool.findings", "count"),
    ("engine.build_hit_ratio", "ratio"),
    ("uarch.instructions", "count"),
    ("timing.ops", "count"),
    ("timing.cycles", "count"),
    ("channel.probes", "count"),
    ("store.bytes", "bytes"),
    ("store.hit_ratio", "ratio"),
    ("engine.pool_wait_s", "s"),
    ("engine.pool_speedup", "ratio"),
    ("engine.pool_serial_s", "s"),
    ("engine.pool_parallel_s", "s"),
    ("service.engine_busy_s", "s"),
    ("service.front_s", "s"),
    ("service.dedup_ratio", "ratio"),
    ("service.rejected", "count"),
    ("service.retries", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.untraced_s", "s"),
)


def per_layer_metrics() -> List[Tuple[str, str]]:
    """``(name, unit)`` of every per-layer metric, in report order."""
    names = []
    for layer in LAYERS:
        names += [(f"{layer}.calls", "count"), (f"{layer}.busy_s", "s"),
                  (f"{layer}.self_s", "s")]
    return names + list(LAYER_COUNTS)


# -- stamp --------------------------------------------------------------------
def stamp(root: Path) -> Dict[str, object]:
    """The commit (when the checkout is a git tree), a digest of the
    sources, and the machine fingerprint.  Compare results only between
    equal fingerprints."""
    commit = None
    if (root / ".git").exists():
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=30,
        )
        commit = completed.stdout.strip() or None
    sources = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        sources.update(str(path.relative_to(root)).encode())
        sources.update(path.read_bytes())
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    machine = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
    }
    return {
        "commit": commit,
        "source_sha256": sources.hexdigest()[:16],
        "fingerprint": machine,
        "fingerprint_id": hashlib.sha256(
            json.dumps(machine, sort_keys=True).encode()
        ).hexdigest()[:12],
    }


# -- set-up probes --------------------------------------------------------------
def probe_setup(name: str, seed: int, tiny: bool) -> Tuple[float, float]:
    """Set-up time of one fresh interpreter (imports, inputs, sessions) and
    the reference time it measured right after."""
    command = [sys.executable, str(HERE / "run.py"), "--setup-probe",
               "--workload", name, "--seed", str(seed)]
    if tiny:
        command.append("--tiny")
    completed = subprocess.run(
        command, capture_output=True, text=True, timeout=120, check=True
    )
    probe = json.loads(completed.stdout.strip().splitlines()[-1])
    return float(probe["setup_s"]), float(probe["reference_s"])


# -- machine speed ------------------------------------------------------------
def reference_s() -> float:
    """Seconds a fixed stdlib-only computation takes: the machine's speed
    right now, independent of the code under test."""
    start = clock()
    for _ in range(4):
        table = {i: (i * 2654435761) & 0xFFFF for i in range(15000)}
        ordered = sorted(table.values())
        json.dumps(ordered[:1250])
        pickle.loads(pickle.dumps(table))
    return clock() - start


def slowdown(reference: float) -> float:
    """How much slower the machine ran than nominal while ``reference``
    was measured."""
    return reference / NOMINAL_REFERENCE_S


# -- passes -------------------------------------------------------------------
def one_pass(
    workload: Workload, full: bool, recorder: Optional[Recorder] = None
) -> Tuple[Pass, float, float]:
    """Prepare, run and clean up one pass; returns it with its start/end."""
    state = workload.prepare(full)
    try:
        gc.collect()
        before = reference_s()
        if recorder is not None:
            recorder.install()
        try:
            start = clock()
            result = workload.run(state)
            end = clock()
        finally:
            if recorder is not None:
                recorder.uninstall()
        result.reference = (before + reference_s()) / 2
    finally:
        workload.cleanup(state)
    return result, start, end


def percentile(samples: List[float], q: int) -> float:
    if len(samples) < 2:
        return samples[0] if samples else 0.0
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def timed_passes(workload: Workload, seconds: float) -> List[Pass]:
    passes = []
    deadline = clock() + seconds
    while len(passes) < MIN_PASSES or clock() < deadline:
        passes.append(one_pass(workload, full=False)[0])
    return passes


def traced_passes(
    workload: Workload, seconds: float
) -> Tuple[List[Pass], Dict[str, float], List[dict]]:
    """Untraced and traced passes in turn; the per-layer metrics are the
    mean over the traced passes."""
    passes: List[Pass] = []
    plain_walls, traced_walls, untraced = [], [], []
    totals = {layer: [0.0, 0.0, 0.0] for layer in LAYERS}
    counts: Dict[str, float] = {}
    pass_counts: Dict[str, List[float]] = {}
    dumps = []
    problems = []
    deadline = clock() + seconds
    while len(traced_walls) < MIN_PASSES or clock() < deadline:
        plain, start, end = one_pass(workload, full=True)
        passes.append(plain)
        plain_walls.append(end - start)
        for key, value in plain.counts.items():
            pass_counts.setdefault(key, []).append(value)
        recorder = Recorder()
        traced, start, end = one_pass(workload, full=True, recorder=recorder)
        passes.append(traced)
        wall = end - start
        traced_walls.append(wall)
        cover = covered(recorder.spans, start, end)
        untraced.append(wall - cover)
        pass_totals = layer_totals(recorder.spans)
        self_sum = sum(entry[2] for entry in pass_totals.values())
        if abs(self_sum - cover) > 1e-6 * max(1.0, wall):
            problems.append(
                f"layer self times {self_sum:.6f} s differ from the covered "
                f"time {cover:.6f} s"
            )
        for layer, entry in pass_totals.items():
            for slot in range(3):
                totals[layer][slot] += entry[slot]
        for key, value in {**recorder.counts, **traced.counts}.items():
            counts[key] = counts.get(key, 0.0) + value
        if workload.name == "service":
            # Every service layer runs on the engine thread: what the spans
            # cover is the time the engine was busy.
            counts["service.engine_busy_s"] = counts.get("service.engine_busy_s", 0.0) + cover
        dumps.append(_dump(recorder, start, end))
    traced_count = len(traced_walls)
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        calls, busy, self_time = totals[layer]
        metrics[f"{layer}.calls"] = calls / traced_count
        metrics[f"{layer}.busy_s"] = busy / traced_count
        metrics[f"{layer}.self_s"] = self_time / traced_count
    mean = {key: value / traced_count for key, value in counts.items()}
    gets = mean.get("store.gets", 0.0)
    builds = mean.get("engine.build_hits", 0.0) + mean.get("engine.build_misses", 0.0)
    serial = statistics.median(pass_counts.get("engine.pool_serial_s", [0.0]))
    parallel = statistics.median(pass_counts.get("engine.pool_parallel_s", [0.0]))
    for key in ("fuzz.distinct_ratio", "graphtool.vertices", "graphtool.findings",
                "uarch.instructions", "timing.ops", "timing.cycles", "channel.probes",
                "store.bytes", "service.engine_busy_s", "service.dedup_ratio",
                "service.rejected", "service.retries"):
        metrics[key] = mean.get(key, 0.0)
    metrics.update({
        "engine.build_hit_ratio": mean.get("engine.build_hits", 0.0) / builds if builds else 0.0,
        "store.hit_ratio": mean.get("store.hits", 0.0) / gets if gets else 0.0,
        "engine.pool_wait_s": metrics["engine.pool_wait.busy_s"],
        "engine.pool_speedup": serial / parallel if parallel else 0.0,
        "engine.pool_serial_s": serial,
        "engine.pool_parallel_s": parallel,
        "service.front_s": mean["service.client_latency_s"] - metrics["service.engine_busy_s"]
        if "service.client_latency_s" in mean else 0.0,
        "trace.overhead_ratio": statistics.median(traced_walls) / statistics.median(plain_walls),
        "trace.wall_s": statistics.fmean(traced_walls),
        "trace.untraced_s": statistics.fmean(untraced),
    })
    if problems:
        passes[-1].problems.extend(problems)
    return passes, metrics, dumps


def _dump(recorder: Recorder, start: float, end: float) -> dict:
    index = {id(span): i for i, span in enumerate(recorder.spans)}
    threads: Dict[int, int] = {}
    rows = [
        [span.layer, round(span.start - start, 9), round(span.end - start, 9),
         index[id(span.parent)] if span.parent is not None else -1,
         threads.setdefault(span.thread, len(threads))]
        for span in recorder.spans
    ]
    return {"wall_s": end - start, "columns": ["layer", "start_s", "end_s",
            "parent", "thread"], "spans": rows}


# -- one run ------------------------------------------------------------------
def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    root: Path,
    *,
    tiny: bool = False,
    probes: int = PROBES,
) -> Tuple[dict, dict]:
    """Run one workload; returns ``(result, detail)``."""
    work_dir = root / ".perfbench_work" / f"{name}-{os.getpid()}"
    workload = WORKLOADS[name](seed, work_dir, tiny)
    setups = [] if trace else [probe_setup(name, seed, tiny) for _ in range(probes)]
    began = clock()
    workload.setup()
    if not setups:
        setups.append((clock() - began, reference_s()))
    try:
        warmup = one_pass(workload, full=trace)[0]
        if trace:
            passes, layer_metrics, dumps = traced_passes(workload, seconds)
        else:
            passes, layer_metrics, dumps = timed_passes(workload, seconds), {}, []
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    problems = [line for item in [warmup] + passes for line in item.problems]
    digests = {item.digest for item in [warmup] + passes}
    if len(digests) != 1:
        problems.append(f"the simulated outputs differ between passes: {sorted(digests)}")
    attempted = sum(item.attempted for item in passes)
    failed = sum(item.failed for item in passes)
    measured = {
        "setup_s": statistics.median(setup for setup, _ in setups),
        "primary_per_s": statistics.median(item.primary for item in passes),
        "secondary_per_s": statistics.median(item.secondary for item in passes),
        # Percentiles within each pass, then the median over passes.
        "p50_ms": statistics.median(percentile(item.latencies, 50) for item in passes) * 1e3,
        "p99_ms": statistics.median(percentile(item.latencies, 99) for item in passes) * 1e3,
    }
    # Scaled to the nominal machine speed by the median reference time of
    # the run (probes for set-up, passes for the rest).
    setup_slowdown = slowdown(statistics.median(ref for _, ref in setups))
    pass_slowdown = slowdown(statistics.median(item.reference for item in passes))
    end_to_end = {
        "setup_s": measured["setup_s"] / setup_slowdown,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "primary_per_s": measured["primary_per_s"] * pass_slowdown,
        "secondary_per_s": measured["secondary_per_s"] * pass_slowdown,
        "p50_ms": measured["p50_ms"] / pass_slowdown,
    }
    # Printed, not in the JSON metrics: too unsteady on a shared machine.
    p99_scaled = measured["p99_ms"] / pass_slowdown
    units = dict(per_layer_metrics() if trace else END_TO_END)
    chosen = layer_metrics if trace else end_to_end
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": chosen[key], "unit": units[key]} for key in units},
    }
    detail = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "passes": len(passes),
        "pass_primary": [item.primary for item in passes],
        "pass_secondary": [item.secondary for item in passes],
        "latency_samples_per_pass": len(passes[0].latencies),
        "setup_samples": [setup for setup, _ in setups],
        "reference_s": statistics.median(item.reference for item in passes),
        "digest": digests.pop() if len(digests) == 1 else None,
        "problems": problems,
        "failed_ratio": failed / attempted if attempted else 0.0,
        "stamp": stamp(root),
    }
    if not trace:
        # name -> (as measured, scaled to nominal speed)
        detail["named"] = {
            "setup_s": (measured["setup_s"], end_to_end["setup_s"]),
            workload.primary_name: (measured["primary_per_s"], end_to_end["primary_per_s"]),
            workload.secondary_name: (measured["secondary_per_s"], end_to_end["secondary_per_s"]),
            f"{workload.latency_name}.p50_ms": (measured["p50_ms"], end_to_end["p50_ms"]),
            f"{workload.latency_name}.p99_ms": (measured["p99_ms"], p99_scaled),
        }
    if dumps:
        out = root / ".perfbench_work" / f"trace-{name}-seed{seed}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps({"detail": detail, "passes": dumps}))
        detail["trace_file"] = str(out.relative_to(root))
    return result, detail
