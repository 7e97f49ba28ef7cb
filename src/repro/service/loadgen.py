"""The concurrent load generator behind the ``service-throughput`` benchmark.

N client threads each fire M spec requests at a running service; a tunable
fraction of every client's specs is *shared* across all clients, so perfect
single-flight + store dedup is checkable: the engine must compute exactly
``unique_specs`` points no matter how the 8x10 request storm interleaves.

:func:`overlapping_workload` builds the per-client request lists (cheap
``exploit`` points distinguished by secret byte -- real end-to-end work,
small enough that the benchmark measures the service, not the simulator);
:func:`run_load` runs the storm and aggregates client-observed latency
percentiles with the server's own hit accounting.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .client import ServiceClient, ServiceError
from .stats import percentiles


def overlapping_workload(
    clients: int,
    per_client: int,
    overlap: float = 0.5,
    *,
    exploit: str = "spectre_v1",
) -> Tuple[List[List[Dict[str, object]]], int]:
    """Per-client spec-dict lists with a shared fraction; returns unique count.

    ``overlap`` of every client's ``per_client`` requests come from one
    shared pool (identical JSON bodies across clients -- the dedup bait);
    the rest are private to the client.  Each client interleaves shared and
    private specs so in-flight attachment and store hits both get exercised.
    """
    if not 0.0 <= overlap <= 1.0:
        raise ValueError(f"overlap must be in [0, 1], got {overlap}")
    shared_count = round(per_client * overlap)
    private_count = per_client - shared_count
    # Every unique spec is one secret byte, counted up from 0x10.
    private_base = 0x10 + shared_count
    if private_base + clients * private_count > 0x100:
        raise ValueError(
            f"{shared_count + clients * private_count} unique specs do not fit "
            "the distinct one-byte secrets 0x10..0xff"
        )

    def spec(secret: int) -> Dict[str, object]:
        return {"kind": "exploit", "params": {"exploit": exploit, "secret": secret}}

    shared = [spec(0x10 + index) for index in range(shared_count)]
    workload: List[List[Dict[str, object]]] = []
    for client in range(clients):
        private = [
            spec(private_base + client * private_count + index)
            for index in range(private_count)
        ]
        requests: List[Dict[str, object]] = []
        taken_shared = taken_private = 0
        for index in range(per_client):  # interleave: shared, private, ...
            want_shared = index % 2 == 0
            if (want_shared or taken_private >= private_count) and (
                taken_shared < shared_count
            ):
                requests.append(shared[taken_shared])
                taken_shared += 1
            else:
                requests.append(private[taken_private])
                taken_private += 1
        workload.append(requests)
    unique = shared_count + clients * private_count
    return workload, unique


@dataclass
class LoadReport:
    """What one load-generator run observed."""

    clients: int
    requests: int
    unique_specs: int
    completed: int = 0
    rejected: int = 0
    errors: int = 0
    elapsed_seconds: float = 0.0
    p50_ms: float = 0.0
    p99_ms: float = 0.0
    hits: Dict[str, int] = field(default_factory=dict)
    #: Per-hit-source latency breakdown: ``{source: {count, p50_ms, p99_ms,
    #: mean_ms}}``.  The aggregate p50/p99 above mixes sub-millisecond
    #: cache hits with multi-second cold computes; splitting by source
    #: (computed / memory / disk / in-flight) is what makes either number
    #: actionable.
    latency_by_source: Dict[str, Dict[str, float]] = field(default_factory=dict)
    computed: int = 0
    dedup_hit_rate: float = 0.0
    server_stats: Dict[str, object] = field(default_factory=dict)

    @property
    def requests_per_second(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.completed / self.elapsed_seconds


def run_load(
    url: str,
    workload: List[List[Dict[str, object]]],
    unique_specs: int,
    *,
    timeout: float = 120.0,
    start_barrier: Optional[threading.Barrier] = None,
) -> LoadReport:
    """Fire every client's requests concurrently; aggregate what they saw."""
    report = LoadReport(
        clients=len(workload),
        requests=sum(len(requests) for requests in workload),
        unique_specs=unique_specs,
    )
    latencies: List[float] = []
    by_source: Dict[str, List[float]] = {}
    lock = threading.Lock()
    barrier = start_barrier or threading.Barrier(len(workload))

    def client_body(requests: List[Dict[str, object]]) -> None:
        client = ServiceClient(url, timeout=timeout)
        local_latencies: List[float] = []
        local_by_source: Dict[str, List[float]] = {}
        local_hits: Dict[str, int] = {}
        completed = rejected = errors = 0
        barrier.wait()
        for payload in requests:
            try:
                envelope = client.run_with_retry(payload)
            except ServiceError as exc:
                if exc.status == 503:
                    rejected += 1
                else:
                    errors += 1
                continue
            except OSError:
                errors += 1
                continue
            completed += 1
            latency = envelope["latency_ms"]["total"]
            local_latencies.append(latency)
            hit = envelope.get("hit", "unknown")
            local_hits[hit] = local_hits.get(hit, 0) + 1
            local_by_source.setdefault(hit, []).append(latency)
        with lock:
            latencies.extend(local_latencies)
            report.completed += completed
            report.rejected += rejected
            report.errors += errors
            for hit, count in local_hits.items():
                report.hits[hit] = report.hits.get(hit, 0) + count
            for hit, samples in local_by_source.items():
                by_source.setdefault(hit, []).extend(samples)

    threads = [
        threading.Thread(target=client_body, args=(requests,), daemon=True)
        for requests in workload
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=timeout)
    report.elapsed_seconds = time.perf_counter() - started
    report.p50_ms, report.p99_ms = percentiles(latencies, (0.50, 0.99))
    for source, samples in sorted(by_source.items()):
        p50, p99 = percentiles(samples, (0.50, 0.99))
        report.latency_by_source[source] = {
            "count": len(samples),
            "p50_ms": round(p50, 3),
            "p99_ms": round(p99, 3),
            "mean_ms": round(sum(samples) / len(samples), 3),
        }
    report.computed = report.hits.get("computed", 0)
    if report.completed:
        report.dedup_hit_rate = 1.0 - report.computed / report.completed
    try:
        report.server_stats = ServiceClient(url, timeout=timeout).stats()
    except (OSError, ServiceError):
        report.server_stats = {}
    return report
