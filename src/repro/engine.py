"""The unified ``Engine`` session API: one declarative run-plan spine.

Every analysis in the library -- the Figure 9 program tool, the defense x
attack matrix, the Section V-A attack-space synthesis, the end-to-end
exploit harness and the cycle-accurate timing plane -- is one *scenario*:
a point (or grid of points) in the attack x defense x timing-model x
channel x secret space.  The engine executes scenarios through a single
spine:

* :meth:`Engine.run` takes a :class:`~repro.scenario.ScenarioSpec` (kind
  ``analyze`` / ``evaluate`` / ``exploit`` / ``simulate`` / ``patch`` /
  ``matrix`` / ``synthesize`` / ``exploit_suite`` / ``simulate_sweep`` /
  ``validate_timing`` / ``window_ablation`` / ``ablation``) and returns one
  :class:`Result` envelope.  Before executing, the spec's content hash is
  looked up in the session's :class:`~repro.store.ArtifactStore` (pass
  ``store=DiskStore()`` for a cache that survives the process -- the second
  CLI/CI invocation of an identical spec is served from
  ``~/.cache/repro/``); after executing, the envelope is persisted back.
* :meth:`Engine.run_grid` takes a :class:`~repro.scenario.ScenarioGrid`
  (cartesian axes over a base spec, or an explicit point list), serves warm
  points from the store, shards the misses over the session's process
  pool, and aggregates one envelope.  A new sweep axis is one ``axes``
  entry -- not one new Engine method.  Grids are the only work that
  crosses a process boundary: composite kinds (``matrix``, ``synthesize``,
  ``simulate_sweep``, ...) run in-process on the session caches.

Beneath the spec layer the session keeps its **content-addressed artifact
caches** (:meth:`build` / :meth:`analyze` keyed on
:meth:`Program.content_hash() <repro.isa.program.Program.content_hash>`,
``(defense, variant)``-keyed evaluations, ``(source, delay, channel)``-keyed
synthesized graphs, ``(attack, config, secret, model)``-keyed timing
simulations, ``(program sha, secret, inject, model)``-keyed fuzz verdicts),
all bounded (``cache_limit``), observable (:meth:`stats`) and
droppable (:meth:`invalidate`), and its **execution plane**
(:meth:`Engine.map`: a session-owned process pool with a deterministic
serial fallback; parallel output is byte-identical to serial output).

The named methods (:meth:`analyze`, :meth:`evaluate_matrix`,
:meth:`simulate_sweep`, :meth:`ablate_window`, ...) survive as thin shims
that build the equivalent spec and call :meth:`run` -- prefer specs in new
code.  The legacy free functions (:func:`repro.graphtool.analyze_program`,
:func:`repro.defenses.evaluate_defense`, ...) delegate to the module-wide
:func:`default_engine`.
"""

from __future__ import annotations

import copy
import json
import pickle
import random
import time
from concurrent.futures import (
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    as_completed,
)
from concurrent.futures import TimeoutError as FutureTimeoutError
from pickle import PicklingError
from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

from .attacks.base import (
    AttackVariant,
    CovertChannelKind,
    DelayMechanism,
    SecretSource,
)
from .attacks.generator import (
    SynthesizedAttack,
    enumerate_attack_space,
    published_keys,
    refresh_published_cache,
)
from .core.attack_graph import AttackGraph
from .core.security_dependency import ProtectionPoint
from .defenses.base import Defense
from .graphtool.analyzer import AnalysisReport, analyze_build
from .graphtool.builder import AttackGraphBuilder, BuildResult
from .graphtool.expansion import expansion_for
from .isa.program import Program
from .scenario import (
    ScenarioGrid,
    ScenarioSpec,
    decode_attack_variant,
    decode_axis_enums,
    decode_config,
    decode_defense,
    decode_model,
    decode_points,
    decode_program,
    decode_secret,
    decode_sim_defense,
    decode_sim_defenses,
)
from .obs.metrics import MetricsRegistry
from .obs.trace import Span, TraceContext, Tracer
from .store import ArtifactStore, store_from_ref, store_ref
from .uarch.timing.scheduler import CONTENDED_MODEL, SERIALIZED_MODEL

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .faults import FaultPlan
    from .fuzz.generator import FuzzVerdict

T = TypeVar("T")
R = TypeVar("R")


# ---------------------------------------------------------------------------
# Result envelope
# ---------------------------------------------------------------------------
@dataclass
class Result:
    """Uniform JSON-serializable envelope around one analysis outcome.

    ``kind`` is one of ``analyze`` / ``evaluate`` / ``synthesize`` /
    ``exploit`` / ``simulate`` / ``patch`` / ``ablation`` /
    ``window_ablation`` (grids add ``<kind>_grid``); ``ok`` is the
    headline boolean of that kind (program safe, defense effective, sweep
    complete, secret recovered, squash beat the transmit); ``cache`` records
    whether the result came from a cold build, a warm cache hit, or a
    non-cached computation; ``data`` is plain JSON-serializable content and
    ``payload`` the rich library object (``AnalysisReport``,
    ``DefenseEvaluation`` list, ...) for programmatic callers.
    """

    kind: str
    subject: str
    ok: bool
    cache: str
    data: Dict[str, object]
    payload: object = field(default=None, repr=False, compare=False)

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "subject": self.subject,
            "ok": self.ok,
            "cache": self.cache,
            "data": self.data,
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True, default=str)


# ---------------------------------------------------------------------------
# Fault-tolerant grid execution: policy, streaming points, quarantine
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class FailurePolicy:
    """How a grid survives misbehaving points (``Engine(policy=...)``).

    Grids run on one pool loop either way; a policy changes what a task
    holds and what a failure does.  With a policy set, each grid miss is its
    own pool task under supervision:

    * ``timeout`` -- wall-clock seconds a point may run before its worker
      is presumed hung; the pool is killed and the point retried in
      isolation.  ``None`` disables the clock.  A pure-serial engine
      (no pool available) cannot preempt in-process work, so timeouts are
      only enforceable across a process boundary.
    * ``retries`` -- extra attempts a failing point gets, each in an
      isolated single-inflight pool task so an innocent neighbour never
      burns the budget of the point that actually killed the worker.
    * ``backoff`` / ``backoff_cap`` / ``jitter`` -- exponential delay
      between attempts (``backoff * 2**(attempt-1)``, capped, +/- jitter
      fraction drawn from a ``seed``-ed RNG -- deterministic per session).
    * ``quarantine`` -- exhausted points become first-class
      ``Result(kind="error")`` envelopes (never checkpointed, so a
      ``--resume`` retries them) instead of aborting the campaign;
      ``False`` raises :class:`GridPointFailed`.

    Without a policy (the default) misses run as contiguous shards (the
    least IPC per point) and fail fast: a point's own exception propagates
    unchanged, and only a broken pool is recovered from, by re-running the
    points it never delivered in-process with byte-identical envelopes.

    A policy that cannot work (``timeout <= 0``, negative ``retries``,
    ``backoff`` or ``backoff_cap``, ``jitter`` outside [0, 1]) is a
    ``ValueError`` at construction.
    """

    timeout: Optional[float] = None
    retries: int = 2
    backoff: float = 0.05
    backoff_cap: float = 2.0
    jitter: float = 0.25
    quarantine: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        # ``not x > 0`` rather than ``x <= 0``: NaN fails every bound too.
        if self.timeout is not None and not self.timeout > 0:
            raise ValueError(
                f"failure policy timeout must be > 0 seconds (or None), "
                f"got {self.timeout}"
            )
        if not self.retries >= 0:
            raise ValueError(f"failure policy retries must be >= 0, got {self.retries}")
        for name in ("backoff", "backoff_cap"):
            if not getattr(self, name) >= 0:
                raise ValueError(
                    f"failure policy {name} must be >= 0 seconds, "
                    f"got {getattr(self, name)}"
                )
        if not 0 <= self.jitter <= 1:
            raise ValueError(
                f"failure policy jitter must be in [0, 1], got {self.jitter}"
            )

    def delay(self, attempt: int, rng: random.Random) -> float:
        """Seconds to wait before retry number ``attempt`` (1-based)."""
        delay = min(self.backoff_cap, self.backoff * (2 ** (attempt - 1)))
        if self.jitter:
            delay *= 1.0 + self.jitter * rng.uniform(-1.0, 1.0)
        return delay


class GridPointFailed(RuntimeError):
    """A grid point exhausted its retry budget under ``quarantine=False``."""


@dataclass(frozen=True)
class GridPoint:
    """One streamed grid point: its expansion index, spec and envelope."""

    index: int
    spec: ScenarioSpec
    result: Result


def _failure_info(exc: BaseException, note: Optional[str] = None) -> Tuple[str, str]:
    """(error type, message) of a point failure, for the error envelope."""
    return (type(exc).__name__, note if note is not None else str(exc))


def _error_envelope(
    spec: ScenarioSpec, failure: Tuple[str, str], attempts: int
) -> Result:
    """The quarantine envelope of a point that survived no attempt."""
    error, message = failure
    return Result(
        kind="error",
        subject=spec.describe(),
        ok=False,
        cache="none",
        data={
            "kind": spec.kind,
            "error": error,
            "message": message,
            "attempts": attempts,
            "quarantined": True,
        },
    )


# ---------------------------------------------------------------------------
# Grid pool workers (module-level so they pickle by reference).  Grid
# points are the only work that crosses a process boundary.
# ---------------------------------------------------------------------------
#: A picklable (root, version, max_entries) reference to a DiskStore (or
#: ``None``), shipped with every grid task so worker engines join the same
#: persistent cache as the parent session.
StoreRef = Optional[Tuple[str, str, Optional[int]]]

#: Failures of the pool itself rather than of a point: a dead worker, or an
#: envelope that cannot cross the process boundary.
_POOL_FAULTS = (BrokenExecutor, PicklingError)


def _decode_simulate_point(spec: ScenarioSpec) -> Tuple:
    """Decode one ``simulate`` spec to ``(attack, scenario, config, secret, model)``.

    ``scenario`` is the exploit the registry attack resolves to, so aliased
    attacks (MDS siblings, Foreshadow deployments) share one simulation-cache
    key.  :meth:`Engine._decode_point` memoizes it per session.
    """
    from .uarch.config import DEFAULT_CONFIG
    from .uarch.timing.scheduler import DEFAULT_MODEL
    from .uarch.timing.validate import SCENARIOS

    attack = spec.get("attack")
    scenario = SCENARIOS.get(attack, attack)
    config = decode_config(spec.get("config"))
    base = config if config is not None else DEFAULT_CONFIG
    defenses = decode_sim_defenses(spec.get("defenses"))
    run_config = base.with_defenses(*defenses) if defenses else base
    model = decode_model(spec.get("model"))
    run_model = model if model is not None else DEFAULT_MODEL
    secret = decode_secret(spec.get("secret"))
    return attack, scenario, run_config, secret, run_model


def _grid_worker(
    ref: StoreRef,
    faults: Optional["FaultPlan"],
    ctx: Optional[TraceContext],
    specs: Sequence[ScenarioSpec],
) -> Tuple[List[Result], List[Dict[str, object]]]:
    """Execute one grid task: a contiguous shard, or one point under a policy.

    Each worker builds its own serial ``Engine``; with a disk-backed store
    reference the worker joins the parent's persistent cache, so repeated
    grids are warm across processes -- and every completed point is a
    durable checkpoint the moment its envelope is persisted.

    Returns ``(results, spans)``.  Pool workers cannot append to the
    parent's JSONL sink (interleaved buffers across processes would corrupt
    parentage ordering), so when a :class:`TraceContext` was shipped the
    worker collects its ``worker.point`` spans (and everything nested under
    them) in memory and they ride back for the parent tracer to absorb;
    otherwise ``spans`` is empty.
    """
    tracer = None if ctx is None else Tracer(sink=None, trace_id=ctx.trace_id)
    engine = Engine(store=store_from_ref(ref), faults=faults, tracer=tracer)
    if tracer is None:
        return [engine.run(spec) for spec in specs], []
    results = []
    for spec in specs:
        with tracer.span(
            "worker.point", parent=ctx, kind=spec.kind, key=spec.content_hash()[:12]
        ):
            results.append(engine.run(spec))
    return results, tracer.drain()


#: (ROB entries, reservation stations) points of the window-length ablation:
#: shrinking the window is the paper's ROB/RS ablation, in measured cycles.
#: The smallest points actually bind on the exploit corpus -- at (4, 2) the
#: Spectre v1 send can no longer issue ahead of the stalled bounds check and
#: the measured race flips from leak to safe.
DEFAULT_WINDOW_GRID: Tuple[Tuple[int, int], ...] = (
    (4, 2),
    (8, 4),
    (16, 8),
    (48, 24),
    (192, 64),
)

def _port_overrides(model: "TimingModel") -> Dict[str, Optional[int]]:
    """The bounded port/CDB fields of a reference model, as ablation overrides."""
    fields = ("alu_ports", "load_store_ports", "branch_ports", "mul_ports", "cdb_width")
    return {
        name: getattr(model, name)
        for name in fields
        if getattr(model, name) is not None
    }


#: Port configurations swept by the window-length ablation: the PR-3
#: unlimited machine, the realistic contended core (Theorem 1 agrees for
#: every registry attack) and the maximally serialized one (collapsed
#: memory-level parallelism closes some races -- e.g. Spectre v2's).  The
#: override dicts are derived from the exported reference models so the
#: ablation cannot drift from ``repro simulate --contended``.
DEFAULT_PORT_CONFIGS: Tuple[Tuple[str, Dict[str, Optional[int]]], ...] = (
    ("unbounded", {}),
    ("contended", _port_overrides(CONTENDED_MODEL)),
    ("serialized", _port_overrides(SERIALIZED_MODEL)),
)


def _picklable(payload: object) -> bool:
    """Probe whether work can cross the process boundary.

    CPython signals unpicklable objects with a zoo of exception types
    (PicklingError, TypeError, AttributeError, ...), so the probe catches
    everything -- a failed probe simply routes the work to the serial path
    before anything is submitted to the pool.
    """
    try:
        pickle.dumps(payload)
    except Exception:
        return False
    return True


def _warm_envelope(cached: Result, aliased: bool) -> Result:
    """A warm copy of a stored envelope.

    When the store ``aliased`` the held object (a
    :class:`~repro.store.MemoryStore` hands back the very object it keeps),
    ``data`` is deep-copied so callers can mutate it freely (the documented
    envelope contract) without poisoning the stored entry.  Serializing
    stores already returned a private copy -- no extra work.
    """
    data = copy.deepcopy(cached.data) if aliased else cached.data
    return replace(cached, cache="warm", data=data)


def _store_snapshot(result: Result, aliased: bool) -> Result:
    """The envelope as persisted: decoupled from the caller when aliased."""
    if not aliased:
        return result
    return replace(result, data=copy.deepcopy(result.data))


def _shards(items: List[T], count: int) -> List[List[T]]:
    """Split ``items`` into at most ``count`` contiguous, order-preserving shards."""
    count = max(1, min(count, len(items)))
    size, remainder = divmod(len(items), count)
    shards: List[List[T]] = []
    start = 0
    for i in range(count):
        end = start + size + (1 if i < remainder else 0)
        shards.append(items[start:end])
        start = end
    return shards


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------
class Engine:
    """Stateful session facade: declare the scenario, the engine runs it.

    ``parallel`` sets the default worker count for grid execution; the grid
    entry points (:meth:`run`, :meth:`run_grid`, :meth:`iter_grid`,
    :meth:`run_fuzz_campaign`) also accept a per-call ``parallel=`` override.
    ``parallel=None`` (or 1) means deterministic serial execution
    in-process.

    ``cache_limit`` bounds every in-memory artifact cache to that many
    entries (oldest-inserted evicted first), so long-running batch consumers
    of the legacy free functions -- which share the process-global default
    engine -- cannot grow memory without bound.  ``cache_limit=None``
    disables eviction.

    ``store`` plugs in a spec-level :class:`~repro.store.ArtifactStore`:
    every :meth:`run` envelope is keyed by its spec's content hash, checked
    before executing and persisted after.  A
    :class:`~repro.store.DiskStore` makes the cache survive the process --
    a second CLI or CI invocation of the same spec is one pickle load.
    ``store=None`` (the default) disables the spec layer; the in-memory
    artifact caches below it always apply.
    """

    #: Default per-cache entry bound (FIFO eviction beyond this).
    DEFAULT_CACHE_LIMIT = 4096

    #: Fault-tolerance event vocabulary of ``stats()["grid"]`` -- every
    #: event is materialized at zero so campaign dashboards always see the
    #: full schema.
    GRID_EVENTS = (
        "resumed",
        "retried",
        "quarantined",
        "timeouts",
        "pool_respawns",
        "serial_degradations",
    )

    def __init__(
        self,
        parallel: Optional[int] = None,
        cache_limit: Optional[int] = DEFAULT_CACHE_LIMIT,
        store: Optional[ArtifactStore] = None,
        policy: Optional[FailurePolicy] = None,
        faults: Optional["FaultPlan"] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.parallel = parallel
        self.cache_limit = cache_limit
        self.store = store
        #: Optional :class:`FailurePolicy` supervising grid execution.
        #: Grids run on one pool loop either way: ``None`` submits misses as
        #: contiguous shards and fails fast; a policy submits one point per
        #: task with timeout / retry / quarantine semantics.
        self.policy = policy
        #: Optional :class:`~repro.faults.FaultPlan`: deterministic fault
        #: injection, threaded to worker engines with the work.
        self.faults = faults
        #: Optional :class:`~repro.obs.Tracer`.  ``None`` (the default) is
        #: the zero-instrumentation fast path; a tracer threads spans from
        #: ``run``/``iter_grid`` down into pool workers (contexts shipped
        #: with the work, worker spans harvested back with the results).
        self.tracer = tracer
        #: The session's unified metrics registry: cache hit/miss, run and
        #: grid-campaign counters live here; ``stats()`` is a compatibility
        #: shim over it, and the service's ``/metrics`` endpoint renders it.
        self.metrics = MetricsRegistry()
        self._cache_events = self.metrics.counter(
            "repro_engine_cache_requests_total",
            "Artifact-cache lookups by cache and outcome.",
            labelnames=("cache", "outcome"),
        )
        self._runs_total = self.metrics.counter(
            "repro_engine_runs_total",
            "Scenario executions routed through Engine.run, by spec kind.",
            labelnames=("kind",),
        )
        self._grid_events = self.metrics.counter(
            "repro_engine_grid_events_total",
            "Fault-tolerance events observed by grid campaigns.",
            labelnames=("event",),
        )
        for event in self.GRID_EVENTS:
            self._grid_events.touch(event=event)
        self._store_ops = self.metrics.counter(
            "repro_engine_store_ops_total",
            "Artifact-store operations, synced from the store's own ledger "
            "on scrape (the store stays registry-free so pool workers are "
            "born light).",
            labelnames=("op",),
        )
        self._store_entries = self.metrics.gauge(
            "repro_engine_store_entries",
            "Entries currently held by the artifact store.",
        )
        self._store_bytes = self.metrics.gauge(
            "repro_engine_store_bytes",
            "Bytes currently held by the artifact store (disk stores only).",
        )
        self.metrics.register_collector(self._sync_store_metrics)
        self._builds: Dict[Tuple, BuildResult] = {}
        self._analyses: Dict[Tuple, AnalysisReport] = {}
        #: Keyed on the (frozen) Defense / AttackVariant objects themselves, so
        #: a customized defense sharing a catalog key cannot alias a stale entry.
        self._evaluations: Dict[Tuple[Defense, AttackVariant], "DefenseEvaluation"] = {}
        self._synth_graphs: Dict[Tuple[str, str, str], AttackGraph] = {}
        self._synth_verdicts: Dict[Tuple[str, str], Dict[str, object]] = {}
        #: Timing simulations keyed on (attack, config, secret, model) -- the
        #: config and model are frozen dataclasses, so the key is the full
        #: content of the run.
        self._simulations: Dict[Tuple, "ExploitResult"] = {}
        #: Theorem-1 TSG verdicts per registry attack.  The verdict is a pure
        #: function of the (frozen) registry variant, so one graph build per
        #: attack serves every undefended simulation row of the session --
        #: the dominant cost of a warm ``simulate`` serve without it.
        self._tsg_verdicts: Dict[str, Optional[bool]] = {}
        #: Decoded ``simulate`` points keyed on their raw spec parameters:
        #: the defense/config/model decode runs once per distinct point per
        #: session instead of once per serve.  Values are what
        #: :func:`_decode_simulate_point` returns.
        self._point_decodes: Dict[Tuple, Tuple] = {}
        #: Dual-oracle verdicts of ``fuzz_point`` runs keyed on (program
        #: sha, planted secret, inject, model): a campaign repeats programs,
        #: and a repeat is a pure function of this key.
        self._fuzz_verdicts: Dict[Tuple, FuzzVerdict] = {}
        self._executor: Optional[ProcessPoolExecutor] = None
        self._executor_workers = 0
        self._closed = False
        #: Named external counter providers merged into :meth:`stats` --
        #: the analysis service registers itself here so one ``stats()``
        #: call reports engine *and* service counters in one document.
        self._stats_providers: Dict[str, Callable[[], Dict[str, object]]] = {}

    # -- cache plumbing -----------------------------------------------------
    @staticmethod
    def program_key(
        program: Program, protected_symbols: Optional[Sequence[str]] = None
    ) -> Tuple[str, Tuple[str, ...]]:
        """Content-addressed cache key of a program + extra protected symbols."""
        return (program.content_hash(), tuple(sorted(protected_symbols or ())))

    def _record(self, cache: str, hit: bool) -> None:
        self._cache_events.inc(cache=cache, outcome="hit" if hit else "miss")

    def _grid_event(self, event: str, amount: int = 1) -> None:
        self._grid_events.inc(amount, event=event)

    def _sync_store_metrics(self) -> None:
        """Pull the store's counter ledger into the registry (pre-render)."""
        if self.store is None:
            return
        stats = self.store.stats()
        for op in ("hits", "misses", "puts", "put_failures", "evictions"):
            if op in stats:
                self._store_ops.set_to(stats[op], op=op)
        self._store_entries.set(stats.get("entries", 0))
        if "bytes" in stats:
            self._store_bytes.set(stats["bytes"])

    def _active_tracer(self) -> Optional[Tracer]:
        """The session tracer, or ``None`` when tracing is off/disabled."""
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            return tracer
        return None

    def _store(self, store: Dict, key: object, value: T) -> T:
        """Insert into a cache, evicting the oldest entry beyond the limit."""
        if self.cache_limit is not None and len(store) >= self.cache_limit:
            store.pop(next(iter(store)))
        store[key] = value
        return value

    def _stores(self) -> Dict[str, Dict]:
        """The cache registry shared by :meth:`stats` and :meth:`invalidate`."""
        return {
            "builds": self._builds,
            "analyses": self._analyses,
            "evaluations": self._evaluations,
            "synth_graphs": self._synth_graphs,
            "synth_verdicts": self._synth_verdicts,
            "simulations": self._simulations,
            "tsg_verdicts": self._tsg_verdicts,
            "fuzz_verdicts": self._fuzz_verdicts,
        }

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Hit / miss / entry counts per cache, spec-run counts per kind,
        the artifact-store counters, and the shared expansion cache.

        A compatibility shim since the observability refactor: the counters
        live in :attr:`metrics` (one registry, also rendered as Prometheus
        text by the service's ``/metrics``), and this method synthesizes the
        historical dict shape from the same series -- byte-identical to the
        pre-registry payloads.
        """
        report = {
            name: {
                "entries": len(store),
                "hits": self._cache_events.value(cache=name, outcome="hit"),
                "misses": self._cache_events.value(cache=name, outcome="miss"),
            }
            for name, store in self._stores().items()
        }
        info = expansion_for.cache_info()
        report["expansions"] = {
            "entries": info.currsize,
            "hits": info.hits,
            "misses": info.misses,
        }
        report["runs"] = dict(
            sorted((kind, count) for (kind,), count in self._runs_total.series().items())
        )
        report["grid"] = {
            event: self._grid_events.value(event=event) for event in self.GRID_EVENTS
        }
        if self.store is not None:
            report["store"] = self.store.stats()
        for name, provider in list(self._stats_providers.items()):
            report[name] = dict(provider())
        return report

    def register_stats(
        self, name: str, provider: Callable[[], Dict[str, object]]
    ) -> None:
        """Merge ``provider()`` into every :meth:`stats` report under ``name``.

        Reserved section names (``runs`` / ``grid`` / ``store`` / the cache
        names) are refused -- a provider must not shadow engine counters.
        """
        reserved = set(self._stores()) | {"expansions", "runs", "grid", "store"}
        if name in reserved:
            raise ValueError(f"stats section {name!r} is reserved by the engine")
        self._stats_providers[name] = provider

    def unregister_stats(self, name: str) -> None:
        self._stats_providers.pop(name, None)

    def stats_snapshot(self) -> Dict[str, Dict[str, int]]:
        """A deep copy of :meth:`stats`, safe to keep as a window baseline."""
        return copy.deepcopy(self.stats())

    @staticmethod
    def stats_delta(
        before: Mapping[str, object], after: Mapping[str, object]
    ) -> Dict[str, object]:
        """Per-window counters: ``after - before``, recursively.

        Numeric leaves are differenced (a counter absent from ``before``
        counts from zero), nested mappings recurse, and non-numeric leaves
        pass through from ``after``.  ``stats_delta(snapshot, stats())``
        is the canonical "what happened since" report -- the service's
        ``/stats`` window uses exactly this.
        """
        delta: Dict[str, object] = {}
        for key, value in after.items():
            previous = before.get(key) if isinstance(before, Mapping) else None
            if isinstance(value, Mapping):
                delta[key] = Engine.stats_delta(
                    previous if isinstance(previous, Mapping) else {}, value
                )
            elif isinstance(value, (int, float)) and not isinstance(value, bool):
                baseline = (
                    previous
                    if isinstance(previous, (int, float))
                    and not isinstance(previous, bool)
                    else 0
                )
                delta[key] = value - baseline
            else:
                delta[key] = value
        return delta

    def invalidate(self, cache: Optional[str] = None) -> int:
        """Drop cached artifacts; returns the number of entries removed.

        ``cache`` selects one cache (``builds`` / ``analyses`` /
        ``evaluations`` / ``synth_graphs`` / ``synth_verdicts`` /
        ``simulations`` / ``tsg_verdicts`` / ``fuzz_verdicts``, plus
        ``store`` when a spec-level artifact store is plugged in); ``None``
        clears everything, including the registry's published-key index and
        the shared micro-op expansion cache, and also shuts down the worker
        pool (forked workers snapshot the parent at pool creation, so a
        registry mutation would otherwise be invisible to them) -- use after
        mutating the attack registry or the defense catalog.
        """
        stores = self._stores()
        if cache is not None:
            if cache == "store" and self.store is not None:
                return self.store.clear()
            try:
                store = stores[cache]
            except KeyError as exc:
                known = sorted(stores)
                if self.store is not None:
                    known.append("store")
                raise KeyError(
                    f"unknown cache {cache!r}; known: {', '.join(sorted(known))}"
                ) from exc
            dropped = len(store)
            store.clear()
            return dropped
        dropped = sum(len(store) for store in stores.values())
        for store in stores.values():
            store.clear()
        if self.store is not None:
            dropped += self.store.clear()
        refresh_published_cache()
        expansion_for.cache_clear()
        self._shutdown_pool()
        return dropped

    # -- execution plane ----------------------------------------------------
    def _workers(self, parallel: Optional[int]) -> int:
        if parallel is None:
            parallel = self.parallel
        return max(1, parallel or 1)

    def _pool(self, workers: int) -> ProcessPoolExecutor:
        if self._executor is None or self._executor_workers < workers:
            if self._executor is not None:
                self._executor.shutdown()
            self._executor = ProcessPoolExecutor(max_workers=workers)
            self._executor_workers = workers
        return self._executor

    def _try_pool(self, workers: int) -> Optional[ProcessPoolExecutor]:
        """The session pool, or ``None`` when the platform cannot fork one
        (or the session was closed -- a closed engine never respawns)."""
        if self._closed:
            return None
        try:
            return self._pool(workers)
        except OSError:
            return None

    def _shutdown_pool(self) -> None:
        """Drop the worker pool (a later parallel call may spawn a fresh one)."""
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None
            self._executor_workers = 0

    def _kill_pool(self) -> None:
        """Terminate worker processes and drop the pool *without waiting*.

        The graceful :meth:`_shutdown_pool` joins every worker -- which
        deadlocks when the reason for shutting down is a hung or dying
        worker.  This path SIGTERMs the workers first and never waits; a
        later parallel call respawns a fresh pool.
        """
        executor = self._executor
        self._executor = None
        self._executor_workers = 0
        if executor is None:
            return
        processes = getattr(executor, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.terminate()
            except Exception:  # pragma: no cover - process already reaped
                pass
        try:
            executor.shutdown(wait=False, cancel_futures=True)
        except Exception:  # pragma: no cover - broken executor internals
            pass

    def halt(self) -> None:
        """End the session *now*: terminate workers, never wait.

        The Ctrl-C path -- :meth:`close` would join a possibly hung pool.
        Completed grid points already persisted through the artifact store
        stay durable; everything in flight is abandoned.
        """
        self._kill_pool()
        self._closed = True

    def close(self) -> None:
        """End the session: shut the pool down for good (caches are kept).

        A closed engine still answers serial calls (parallel requests fall
        back to the deterministic serial path) but never spawns a new pool,
        and :func:`default_engine` will not hand out a closed session --
        the next caller gets a fresh one.
        """
        self._shutdown_pool()
        if self.tracer is not None:
            self.tracer.flush()
        self._closed = True

    @property
    def closed(self) -> bool:
        """``True`` once :meth:`close` has ended this session."""
        return self._closed

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def map(
        self,
        fn: Callable[[T], R],
        items: Iterable[T],
        parallel: Optional[int] = None,
    ) -> List[R]:
        """Order-preserving map over ``items``, sharded across the pool.

        With ``parallel`` (or the session default) <= 1 this is a plain
        serial list comprehension; otherwise ``fn`` and the items must be
        picklable.  Results always come back in input order, so serial and
        parallel runs are interchangeable.
        """
        work = list(items)
        workers = self._workers(parallel)
        if workers <= 1 or len(work) <= 1:
            return [fn(item) for item in work]
        chunksize = max(1, -(-len(work) // workers))
        pool = self._try_pool(workers)
        if pool is None or not _picklable((fn, work)):
            return [fn(item) for item in work]
        try:
            return list(pool.map(fn, work, chunksize=chunksize))
        except (BrokenExecutor, PicklingError):
            # A broken pool (or a result that cannot cross the process
            # boundary) must not change results -- fall back to the
            # deterministic serial path.  Exceptions raised by ``fn`` itself
            # propagate unchanged; unpicklable *inputs* are caught by the
            # probe above, before anything is submitted.
            self._shutdown_pool()
            return [fn(item) for item in work]

    # ======================================================================
    # The run-plan spine: one cached executor for every spec kind
    # ======================================================================
    def run(
        self,
        spec: Union[ScenarioSpec, ScenarioGrid],
        *,
        parallel: Optional[int] = None,
    ) -> Result:
        """Execute one scenario spec; the single entry point of the engine.

        The spec's content hash is checked against the session's artifact
        store first (a hit is returned as a ``warm`` envelope without
        executing anything); on a miss the kind's executor runs through the
        in-memory artifact caches and the envelope is persisted back.
        ``parallel`` only fans out grids (and the grids a fuzz campaign
        drives); composite kinds always run in-process.  It is an execution
        detail, not part of the scenario's identity: serial and sharded runs
        share one cache entry.
        """
        if isinstance(spec, ScenarioGrid):
            return self.run_grid(spec, parallel=parallel)
        tracer = self._active_tracer()
        if tracer is None:
            return self._run_spec(spec, parallel, None)
        with tracer.span("engine.run", kind=spec.kind) as span:
            result = self._run_spec(spec, parallel, tracer)
            span.set(cache=result.cache)
            return result

    def _run_spec(
        self, spec: ScenarioSpec, parallel: Optional[int], tracer: Optional[Tracer]
    ) -> Result:
        """The untraced :meth:`run` body; ``tracer`` adds the store-put span."""
        executor = getattr(self, f"_run_{spec.kind}")
        key = spec.content_hash()
        if self.store is not None:
            aliased = getattr(self.store, "aliases_values", True)
            cached = self.store.get(key)
            if isinstance(cached, Result):
                return _warm_envelope(cached, aliased)
        if self.faults is not None:
            # Injected *after* the warm path: a checkpointed point must be
            # servable on resume without re-tripping its fault.
            self.faults.fire_point(spec.content_key())
        # Counted here -- after the warm-store return -- so ``stats()["runs"]``
        # reflects real executor invocations, not store-served envelopes.
        self._runs_total.inc(kind=spec.kind)
        result = executor(spec, parallel)
        if self.store is not None:
            if tracer is None:
                self.store.put(key, _store_snapshot(result, aliased))
            else:
                with tracer.span("store.put", kind=spec.kind):
                    self.store.put(key, _store_snapshot(result, aliased))
        return result

    def iter_grid(
        self, grid: ScenarioGrid, *, parallel: Optional[int] = None
    ) -> Iterator[GridPoint]:
        """Stream a grid's points as they finish: the resumable pipeline.

        Yields one :class:`GridPoint` per expansion point, *in completion
        order* (checkpointed points first, then misses as their shard or
        task completes).  Every completed point is persisted through the
        session's artifact store before it is yielded -- with a
        :class:`~repro.store.DiskStore` each yield is a durable checkpoint,
        so a killed campaign relaunched against the same store recomputes
        only the points never yielded (``stats()["grid"]["resumed"]``
        counts the served checkpoints).

        Misses run on one pool loop.  With a :class:`FailurePolicy` on the
        session each miss is its own supervised task (timeout / retry /
        quarantine -- see the policy's docstring); without one they run as
        contiguous shards and a point's own exception propagates fail-fast,
        while a broken pool only sends its undelivered points in-process.
        """
        tracer = self._active_tracer()
        if tracer is None:
            yield from self._iter_grid(grid, parallel)
            return
        with tracer.span("engine.iter_grid", kind=grid.kind, points=len(grid)):
            yield from self._iter_grid(grid, parallel)

    def _iter_grid(
        self, grid: ScenarioGrid, parallel: Optional[int]
    ) -> Iterator[GridPoint]:
        """The :meth:`iter_grid` body (separated so tracing can wrap it).

        Store hits are served first.  With a pool, the misses run as tasks
        of :meth:`_pool_pass` -- contiguous shards without a policy (the
        least IPC per point), one point per task under a
        :class:`FailurePolicy` (a per-point clock and exact blame).  Every
        point the pool did not deliver, and every miss when no pool is
        available, goes through :meth:`_recover_point`.
        """
        specs = grid.specs()
        self._runs_total.inc(len(specs), kind="grid")
        aliased = True
        misses: List[int] = []
        if self.store is not None:
            aliased = getattr(self.store, "aliases_values", True)
            for index, spec in enumerate(specs):
                cached = self.store.get(spec.content_hash())
                if isinstance(cached, Result):
                    self._grid_event("resumed")
                    yield GridPoint(index, spec, _warm_envelope(cached, aliased))
                else:
                    misses.append(index)
        else:
            misses = list(range(len(specs)))
        if not misses:
            return
        policy = self.policy
        rng = random.Random(policy.seed) if policy is not None else None
        workers = self._workers(parallel)
        pool = self._try_pool(workers) if workers > 1 and len(misses) > 1 else None
        if pool is not None and not _picklable(
            (self.faults, [specs[index] for index in misses])
        ):
            pool = None
        failed: List[Tuple[int, Optional[Tuple[str, str]]]] = []
        if pool is None:
            failed = [(index, None) for index in misses]
        else:
            tasks = (
                _shards(misses, workers)
                if policy is None
                else [[index] for index in misses]
            )
            yield from self._pool_pass(pool, specs, tasks, failed)
        for index, failure in sorted(failed, key=lambda item: item[0]):
            result = self._recover_point(specs, index, failure, rng, pool is not None)
            yield GridPoint(index, specs[index], result)

    def run_grid(
        self,
        grid: ScenarioGrid,
        *,
        parallel: Optional[int] = None,
        on_point: Optional[Callable[[GridPoint], None]] = None,
    ) -> Result:
        """Execute every point of a scenario grid and aggregate one envelope.

        The eager wrapper around :meth:`iter_grid`: drains the stream and
        reassembles rows in the grid's deterministic expansion order --
        parallel output is byte-identical to serial output, and a fault-free
        run is byte-identical to the pre-streaming implementation.
        Quarantined points (``kind="error"`` envelopes, only possible under
        a :class:`FailurePolicy`) are surfaced as failed rows plus a
        ``quarantined`` count in the grid data.  ``on_point`` is invoked
        with each streamed :class:`GridPoint` in completion order -- the
        hook behind the CLI's ``--progress`` line.
        """
        size = len(grid)
        results: List[Optional[Result]] = [None] * size
        for point in self.iter_grid(grid, parallel=parallel):
            results[point.index] = point.result
            if on_point is not None:
                on_point(point)
        # No per-row cache provenance: a worker computes cold what a serial
        # run may serve warm, and grid rows must be byte-identical either
        # way.  Provenance is observable via stats()["store"] instead.
        rows = [
            {"subject": result.subject, "ok": result.ok, "data": result.data}
            for result in results
        ]
        data: Dict[str, object] = {
            "kind": grid.kind,
            "points": size,
            "ok_points": sum(1 for result in results if result.ok),
            "rows": rows,
        }
        if grid.axes:
            data["axes"] = {
                name: len(values) for name, values in grid.axes.items()
            }
        quarantined = sum(1 for result in results if result.kind == "error")
        if quarantined:
            data["quarantined"] = quarantined
        return Result(
            kind=f"{grid.kind}_grid",
            subject=f"grid {grid.kind} ({size} points)",
            ok=all(result.ok for result in results),
            cache="none",
            data=data,
            payload=list(results),
        )

    def _absorb_point(
        self, spec: ScenarioSpec, result: Result, aliased: bool, ref: StoreRef
    ) -> None:
        """Checkpoint a worker-computed point into a process-local store.

        Workers holding a disk-store reference persisted their points
        themselves; only process-local stores need the parent to absorb
        the result.
        """
        if self.store is not None and ref is None:
            self.store.put(spec.content_hash(), _store_snapshot(result, aliased))

    def _pool_pass(
        self,
        pool: ProcessPoolExecutor,
        specs: Sequence[ScenarioSpec],
        tasks: List[List[int]],
        failed: List[Tuple[int, Optional[Tuple[str, str]]]],
    ) -> Iterator[GridPoint]:
        """The one pool loop: run ``tasks`` (lists of grid indices) on ``pool``.

        Yields each point as its task completes and appends every point the
        pool did not deliver to ``failed`` with its failure info.  Every
        task gets a detached ``engine.shard`` span.  The loop waits through
        ``as_completed`` on the policy's ``timeout`` (forever without a
        policy); a window with no completion presumes the running workers
        hung.  A hung or broken pool is killed -- a plain shutdown would
        join the hung worker -- after harvesting the tasks that completed
        before it broke.  Without a policy a point's own exception
        propagates unchanged (fail-fast).
        """
        policy = self.policy
        timeout = policy.timeout if policy is not None else None
        ref = store_ref(self.store)
        aliased = getattr(self.store, "aliases_values", True)
        tracer = self._active_tracer()
        pending: Dict[Future, Tuple[List[int], Optional[Span]]] = {}
        fault: Optional[Tuple[str, str]] = None
        for number, task in enumerate(tasks):
            span = None
            if tracer is not None:
                # Detached: task spans finish in completion order, not LIFO
                # -- they must never sit on the submitting thread's span
                # stack.  Their context ships with the work so worker.point
                # spans parent on them.
                span = tracer.span("engine.shard", detached=True, points=len(task))
            try:
                future = pool.submit(
                    _grid_worker,
                    ref,
                    self.faults,
                    None if span is None else span.context(),
                    [specs[index] for index in task],
                )
            except _POOL_FAULTS as exc:
                self._grid_event("pool_respawns")
                fault = _failure_info(exc, "task submission failed")
                if span is not None:
                    tracer.finish(span.set(error=fault[0]))
                failed.extend(
                    (index, fault) for rest in tasks[number:] for index in rest
                )
                break
            pending[future] = (task, span)
        try:
            while pending:
                try:
                    # One completion per call: as_completed's timeout is a
                    # deadline from the call, so a fresh call per completion
                    # makes the policy timeout a per-window clock.  After a
                    # fault the zero window only harvests finished tasks.
                    future = next(
                        as_completed(
                            pending, timeout=0 if fault is not None else timeout
                        )
                    )
                except FutureTimeoutError:
                    if fault is None:
                        self._grid_event("timeouts")
                        fault = ("Timeout", f"no completion within {timeout}s")
                    break
                task, span = pending.pop(future)
                try:
                    rows, worker_spans = future.result()
                except Exception as exc:
                    died = isinstance(exc, _POOL_FAULTS)
                    info = _failure_info(exc, "worker process died" if died else None)
                    if span is not None:
                        tracer.finish(span.set(error=info[0]))
                    if not died and policy is None:
                        raise
                    if died and fault is None:
                        self._grid_event("pool_respawns")
                        fault = info
                    failed.extend((index, info) for index in task)
                    continue
                if tracer is not None:
                    tracer.absorb(worker_spans)
                    tracer.finish(span)
                for index, result in zip(task, rows):
                    self._absorb_point(specs[index], result, aliased, ref)
                    yield GridPoint(index, specs[index], result)
        finally:
            # Tasks never harvested -- a hung or broken pool, a fail-fast
            # exception, a consumer that stopped early -- still finish
            # their spans: a sampled-out span holds the tracer's drop depth.
            for _, span in pending.values():
                if span is not None:
                    tracer.finish(span.set(error=fault[0] if fault else "abandoned"))
        if fault is not None:
            failed.extend(
                (index, fault) for task, _ in pending.values() for index in task
            )
            self._kill_pool()

    def _recover_point(
        self,
        specs: Sequence[ScenarioSpec],
        index: int,
        failure: Optional[Tuple[str, str]],
        rng: Optional[random.Random],
        pooled: bool,
    ) -> Result:
        """Run a point that has no envelope yet: once, or until it heals.

        ``failure`` is the info of its failed pool task, or ``None`` when
        the point was never attempted (no pool was available).  Without a
        policy the point runs once in-process and its own exception
        propagates (fail-fast).  Under a policy it is retried with backoff
        -- alone in a pool task when ``pooled``, in-process otherwise --
        until it succeeds or exhausts ``retries`` and is quarantined.
        """
        spec = specs[index]
        policy = self.policy
        if policy is None:
            return self.run(spec)
        attempts = 0 if failure is None else 1
        last = failure
        while attempts <= policy.retries:
            if attempts:
                self._grid_event("retried")
                delay = policy.delay(attempts, rng)
                if delay > 0:
                    time.sleep(delay)
            attempts += 1
            outcome = self._attempt(specs, index, pooled)
            if isinstance(outcome, Result):
                return outcome
            last = outcome
        if not policy.quarantine:
            raise GridPointFailed(
                f"{spec.describe()}: {last[0]}: {last[1]} (after {attempts} attempts)"
            )
        self._grid_event("quarantined")
        # Never checkpointed: a resume against the same store retries the
        # quarantined point instead of replaying its failure.
        return _error_envelope(spec, last, attempts)

    def _attempt(
        self, specs: Sequence[ScenarioSpec], index: int, pooled: bool
    ) -> Union[Result, Tuple[str, str]]:
        """One supervised attempt of a single point; failure info on error.

        When ``pooled`` the point rides alone in a (respawned if needed)
        pool task, so a crash or timeout is unambiguously its own doing.
        In-process -- the serial plane, or a pool that can no longer be
        spawned -- exceptions still count, but hangs and crashes can no
        longer be contained (nothing preempts in-process work).
        """
        if pooled:
            pool = self._try_pool(1)
            if pool is not None:
                failed: List[Tuple[int, Optional[Tuple[str, str]]]] = []
                points = list(self._pool_pass(pool, specs, [[index]], failed))
                return points[0].result if points else failed[0][1]
            self._grid_event("serial_degradations")
        try:
            return self.run(specs[index])
        except Exception as exc:
            return _failure_info(exc)

    # -- Figure 9 program analysis ------------------------------------------
    def build(
        self, program: Program, protected_symbols: Optional[Sequence[str]] = None
    ) -> BuildResult:
        """Construct (or fetch) the attack graph of a program, content-hashed."""
        key = self.program_key(program, protected_symbols)
        cached = self._builds.get(key)
        if cached is not None:
            self._record("builds", hit=True)
            return cached
        self._record("builds", hit=False)
        tracer = self._active_tracer()
        if tracer is None:
            build = AttackGraphBuilder(program, protected_symbols).build()
        else:
            with tracer.span("engine.build", program=getattr(program, "name", "")):
                build = AttackGraphBuilder(program, protected_symbols).build()
        self._store(self._builds, key, build)
        return build

    def analyze(
        self,
        program: Program,
        protected_symbols: Optional[Sequence[str]] = None,
        points: Optional[Sequence[ProtectionPoint]] = None,
    ) -> Result:
        """Run the full Figure 9 flow on a program; warm calls hit the cache.

        Deprecated spelling of ``run(ScenarioSpec("analyze", program=...))``.

        The envelope ``data`` is freshly built per call and safe to mutate;
        the ``payload`` (:class:`AnalysisReport`) is the shared cached
        artifact -- treat it as immutable, like every cached build.
        """
        return self.run(
            ScenarioSpec(
                "analyze",
                program=program,
                protected_symbols=(
                    tuple(protected_symbols) if protected_symbols is not None else None
                ),
                points=tuple(points) if points is not None else None,
            )
        )

    def _run_analyze(self, spec: ScenarioSpec, parallel: Optional[int]) -> Result:
        program = decode_program(spec.get("program"), spec.get("name"))
        protected_symbols = spec.get("protected_symbols")
        points = decode_points(spec.get("points"))
        points_key = tuple(point.value for point in points) if points is not None else None
        key = (self.program_key(program, protected_symbols), points_key)
        report = self._analyses.get(key)
        if report is not None:
            self._record("analyses", hit=True)
            cache_state = "warm"
        else:
            self._record("analyses", hit=False)
            cache_state = "cold"
            build = self.build(program, protected_symbols)
            report = analyze_build(build, points)
            self._store(self._analyses, key, report)
        # The envelope data is built per call (only the report is cached):
        # callers may freely mutate result.data without poisoning warm hits.
        data = {
            "program": report.program_name,
            "content_hash": key[0][0],
            "vertices": len(report.build.graph),
            "edges": len(report.build.graph.edges),
            "classification": (
                "meltdown-type" if report.is_meltdown_type else "spectre-type"
            ),
            "secret_accesses": len(report.build.secret_accesses),
            "racing_pairs": report.total_racing_pairs,
            "vulnerable": report.vulnerable,
            "findings": [
                {
                    "authorization": finding.authorization,
                    "protected_operation": finding.protected_operation,
                    "point": finding.point.value,
                    "software_patchable": finding.software_patchable,
                    "description": finding.description,
                }
                for finding in report.findings
            ],
        }
        return Result(
            kind="analyze",
            subject=report.program_name,
            ok=not report.vulnerable,
            cache=cache_state,
            data=data,
            payload=report,
        )

    # -- defense evaluation -------------------------------------------------
    def evaluate(
        self,
        defense: Defense,
        variant: AttackVariant,
        graph: Optional[AttackGraph] = None,
    ) -> Result:
        """Apply one defense to one attack variant (cached per key pair).

        Deprecated spelling of ``run(ScenarioSpec("evaluate", defense=...,
        attack=...))``.  Passing an explicit ``graph`` bypasses the
        declarative path entirely (the graph is an opaque mutable object and
        is never cached).
        """
        if graph is not None:
            from .defenses.evaluation import evaluate_defense_uncached

            evaluation = evaluate_defense_uncached(defense, variant, graph)
            return Result(
                kind="evaluate",
                subject=f"{defense.key} vs {variant.key}",
                ok=evaluation.effective,
                cache="none",
                data=_evaluation_row(evaluation),
                payload=evaluation,
            )
        return self.run(ScenarioSpec("evaluate", defense=defense, attack=variant))

    def _run_evaluate(self, spec: ScenarioSpec, parallel: Optional[int]) -> Result:
        from .defenses.evaluation import evaluate_defense_uncached

        defense = decode_defense(spec.get("defense"))
        variant = decode_attack_variant(spec.get("attack"))
        key = (defense, variant)
        evaluation = self._evaluations.get(key)
        if evaluation is not None:
            self._record("evaluations", hit=True)
            cache_state = "warm"
        else:
            self._record("evaluations", hit=False)
            cache_state = "cold"
            evaluation = evaluate_defense_uncached(defense, variant)
            self._store(self._evaluations, key, evaluation)
        return Result(
            kind="evaluate",
            subject=f"{defense.key} vs {variant.key}",
            ok=evaluation.effective,
            cache=cache_state,
            data=_evaluation_row(evaluation),
            payload=evaluation,
        )

    def evaluate_matrix(
        self,
        defenses: Optional[Sequence[Defense]] = None,
        variants: Optional[Sequence[AttackVariant]] = None,
    ) -> Result:
        """Evaluate every defense against every variant, in-process.

        Deprecated spelling of ``run(ScenarioSpec("matrix", ...))``.  Rows
        are sorted by ``(defense key, attack key)``; every pair goes through
        the session's evaluation cache.
        """
        return self.run(
            ScenarioSpec(
                "matrix",
                defenses=tuple(defenses) if defenses is not None else None,
                attacks=tuple(variants) if variants is not None else None,
            )
        )

    def _run_matrix(self, spec: ScenarioSpec, parallel: Optional[int]) -> Result:
        from .attacks.registry import variants as registry_variants
        from .defenses import ALL_DEFENSES

        defenses = spec.get("defenses")
        variants = spec.get("attacks")
        chosen_defenses = (
            [decode_defense(defense) for defense in defenses]
            if defenses is not None
            else list(ALL_DEFENSES)
        )
        chosen_variants = (
            [decode_attack_variant(variant) for variant in variants]
            if variants is not None
            else registry_variants()
        )
        pairs = sorted(
            (
                (defense, variant)
                for defense in chosen_defenses
                for variant in chosen_variants
            ),
            key=lambda pair: (pair[0].key, pair[1].key),
        )
        evaluations = [
            self.evaluate(defense, variant).payload for defense, variant in pairs
        ]
        rows = [_evaluation_row(evaluation) for evaluation in evaluations]
        defeated: Dict[str, bool] = {}
        for evaluation in evaluations:
            defeated[evaluation.attack_key] = (
                defeated.get(evaluation.attack_key, False) or evaluation.effective
            )
        data = {
            "defenses": len(chosen_defenses),
            "attacks": len(chosen_variants),
            "effective": sum(1 for evaluation in evaluations if evaluation.effective),
            "undefeated_attacks": sorted(
                key for key, covered in defeated.items() if not covered
            ),
            "rows": rows,
        }
        return Result(
            kind="evaluate",
            subject=f"matrix {len(chosen_defenses)}x{len(chosen_variants)}",
            ok=all(defeated.values()) if defeated else True,
            cache="none",
            data=data,
            payload=evaluations,
        )

    # -- Section V-A attack-space synthesis ---------------------------------
    def synthesize_graph(self, attack: SynthesizedAttack) -> AttackGraph:
        """Build (or fetch) the synthesized graph of one combination."""
        graph = self._synth_graphs.get(attack.key)
        if graph is not None:
            self._record("synth_graphs", hit=True)
            return graph
        self._record("synth_graphs", hit=False)
        graph = attack.build_graph()
        self._store(self._synth_graphs, attack.key, graph)
        return graph

    def _synth_row(self, attack: SynthesizedAttack) -> Dict[str, object]:
        """One sweep row; the structural verdict only depends on (source, delay).

        The covert channel names the exfiltration path but does not change the
        synthesized graph's shape, so leak / vulnerability / race analysis is
        shared across all channels of one (source, delay) pair.
        """
        from .defenses.evaluation import attack_succeeds

        structural_key = (attack.secret_source.name, attack.delay_mechanism.name)
        verdict = self._synth_verdicts.get(structural_key)
        if verdict is not None:
            self._record("synth_verdicts", hit=True)
        else:
            self._record("synth_verdicts", hit=False)
            graph = self.synthesize_graph(attack)
            verdict = {
                "leaks": attack_succeeds(graph),
                "vulnerabilities": len(graph.find_vulnerabilities()),
                "racing_pairs": graph.racing_pair_count(),
                "vertices": len(graph),
                "edges": len(graph.edges),
                "meltdown_type": graph.is_meltdown_type,
            }
            self._store(self._synth_verdicts, structural_key, verdict)
        row: Dict[str, object] = {
            "source": attack.secret_source.name,
            "delay": attack.delay_mechanism.name,
            "channel": attack.channel.name,
            "published": attack.is_published,
        }
        row.update(verdict)
        return row

    def synthesize(
        self,
        sources: Optional[Sequence[SecretSource]] = None,
        delays: Optional[Sequence[DelayMechanism]] = None,
        channels: Optional[Sequence[CovertChannelKind]] = None,
    ) -> Result:
        """Sweep the (restricted) attack space, in-process.

        Deprecated spelling of ``run(ScenarioSpec("synthesize", ...))``.
        Rows come back sorted by ``(source, delay, channel)`` key; channel
        twins share one structural verdict through the session cache.
        """
        return self.run(
            ScenarioSpec(
                "synthesize",
                sources=tuple(sources) if sources is not None else None,
                delays=tuple(delays) if delays is not None else None,
                channels=tuple(channels) if channels is not None else None,
            )
        )

    def _run_synthesize(self, spec: ScenarioSpec, parallel: Optional[int]) -> Result:
        sources = decode_axis_enums(SecretSource, spec.get("sources"))
        delays = decode_axis_enums(DelayMechanism, spec.get("delays"))
        channels = decode_axis_enums(CovertChannelKind, spec.get("channels"))
        attacks = sorted(
            enumerate_attack_space(sources, delays, channels), key=lambda a: a.key
        )
        rows = [self._synth_row(attack) for attack in attacks]
        data = {
            "combinations": len(rows),
            "published": sum(1 for row in rows if row["published"]),
            "novel": sum(1 for row in rows if not row["published"]),
            "leaking": sum(1 for row in rows if row["leaks"]),
            "rows": rows,
        }
        return Result(
            kind="synthesize",
            subject="attack-space",
            ok=True,
            cache="none",
            data=data,
            payload=attacks,
        )

    def novel_combinations(
        self,
        sources: Optional[Sequence[SecretSource]] = None,
        delays: Optional[Sequence[DelayMechanism]] = None,
        channels: Optional[Sequence[CovertChannelKind]] = None,
    ) -> List[SynthesizedAttack]:
        """Unpublished combinations, key-sorted."""
        attacks = sorted(
            enumerate_attack_space(sources, delays, channels), key=lambda a: a.key
        )
        published = published_keys()
        return [attack for attack in attacks if attack.key not in published]

    # -- end-to-end exploits -------------------------------------------------
    def exploit(
        self,
        name: str,
        config: Optional[object] = None,
        secret: Optional[int] = None,
    ) -> Result:
        """Run one end-to-end exploit on the simulator.

        Deprecated spelling of ``run(ScenarioSpec("exploit", exploit=...))``.
        """
        return self.run(
            ScenarioSpec("exploit", exploit=name, config=config, secret=secret)
        )

    def _run_exploit(self, spec: ScenarioSpec, parallel: Optional[int]) -> Result:
        from .exploits.harness import DEFAULT_SECRET, EXPLOITS
        from .uarch.config import DEFAULT_CONFIG

        name = spec.get("exploit")
        if name not in EXPLOITS:
            raise KeyError(
                f"unknown exploit {name!r}; known: {', '.join(sorted(EXPLOITS))}"
            )
        secret = decode_secret(spec.get("secret"))
        planted = DEFAULT_SECRET if secret is None else secret
        config = decode_config(spec.get("config"))
        run_config = config if config is not None else DEFAULT_CONFIG
        defenses = decode_sim_defenses(spec.get("defenses"))
        if defenses:
            run_config = run_config.with_defenses(*defenses)
        result = EXPLOITS[name](run_config, planted)
        return Result(
            kind="exploit",
            subject=name,
            ok=result.success,
            cache="none",
            data=_exploit_row(result),
            payload=result,
        )

    def run_exploits(
        self,
        names: Optional[Sequence[str]] = None,
        config: Optional[object] = None,
        secret: Optional[int] = None,
    ) -> Result:
        """Run a set of exploits (all by default), in-process.

        Deprecated spelling of ``run(ScenarioSpec("exploit_suite", ...))``.
        """
        return self.run(
            ScenarioSpec(
                "exploit_suite",
                exploits=tuple(names) if names is not None else None,
                config=config,
                secret=secret,
            )
        )

    def _run_exploit_suite(self, spec: ScenarioSpec, parallel: Optional[int]) -> Result:
        from .exploits.harness import DEFAULT_SECRET, EXPLOITS
        from .uarch.config import DEFAULT_CONFIG

        names = spec.get("exploits")
        chosen = list(names) if names is not None else list(EXPLOITS)
        if len(set(chosen)) != len(chosen):
            raise ValueError("duplicate exploit names in run_exploits")
        secret = decode_secret(spec.get("secret"))
        planted = DEFAULT_SECRET if secret is None else secret
        config = decode_config(spec.get("config"))
        run_config = config if config is not None else DEFAULT_CONFIG
        # The exploits run directly, not as cached ``exploit`` points: a
        # suite is one envelope and one store entry, however many exploits
        # it holds.
        results = [EXPLOITS[name](run_config, planted) for name in chosen]
        by_name = dict(zip(chosen, results))
        data = {
            "exploits": len(chosen),
            "leaked": sum(1 for result in results if result.success),
            "rows": [_exploit_row(result) for result in results],
        }
        return Result(
            kind="exploit",
            subject=f"suite ({len(chosen)} exploits)",
            ok=all(result.success for result in results),
            cache="none",
            data=data,
            payload=by_name,
        )

    # -- cycle-accurate timing simulation -------------------------------------
    def simulate(
        self,
        attack: str,
        defenses: Sequence["SimDefense"] = (),
        *,
        config: Optional["UarchConfig"] = None,
        secret: Optional[int] = None,
        model: Optional["TimingModel"] = None,
    ) -> Result:
        """Run one attack end-to-end on the cycle-accurate timing core.

        Deprecated spelling of ``run(ScenarioSpec("simulate", attack=...))``.

        ``attack`` is a registry key (mapped to its representative exploit
        scenario) or an exploit name.  Runs are content-hash cached: the key
        is the attack plus the *frozen* simulator config (defenses included),
        the planted secret and the timing model, so a repeated sweep over the
        same space is all cache hits.  The envelope reports both verdicts of
        the paper's race: the functional leak and the measured transmit-vs-
        squash outcome, plus the Theorem 1 TSG verdict for undefended runs.
        """
        return self.run(
            ScenarioSpec(
                "simulate",
                attack=attack,
                defenses=tuple(defenses) or None,
                config=config,
                secret=secret,
                model=model,
            )
        )

    def _run_simulate(self, spec: ScenarioSpec, parallel: Optional[int]) -> Result:
        from .uarch.timing.validate import timed_exploit

        attack, scenario, run_config, secret, run_model = self._decode_point(spec)
        # Keyed on the resolved *scenario*: aliased registry attacks (the MDS
        # siblings, the Foreshadow deployments, ...) share one timing run.
        key = (scenario, run_config, secret, run_model)
        result = self._simulations.get(key)
        if result is not None:
            self._record("simulations", hit=True)
            cache_state = "warm"
        else:
            self._record("simulations", hit=False)
            cache_state = "cold"
            result = timed_exploit(scenario, run_config, secret, run_model)
            self._store(self._simulations, key, result)
        if not run_config.defenses:
            self._record("tsg_verdicts", hit=attack in self._tsg_verdicts)
        data = _simulate_row(attack, scenario, run_config, result, self._tsg_verdicts)
        return Result(
            kind="simulate",
            subject=attack,
            ok=not data["transmit_beats_squash"],
            cache=cache_state,
            data=data,
            payload=result,
        )

    def simulate_sweep(
        self,
        attacks: Optional[Sequence[str]] = None,
        defenses: Optional[Sequence[Optional["SimDefense"]]] = None,
        secret: Optional[int] = None,
        model: Optional["TimingModel"] = None,
    ) -> Result:
        """Sweep (attack x defense) timing simulations, in-process.

        Deprecated spelling of ``run(ScenarioSpec("simulate_sweep", ...))``.

        ``defenses`` defaults to the undefended baseline plus every simulator
        defense.  ``model`` selects the timing-plane configuration for every
        run (e.g. the contended reference core).  Rows are sorted by (attack,
        defense) key and every run goes through the session's simulation
        cache, mirroring :meth:`evaluate_matrix`.
        """
        return self.run(
            ScenarioSpec(
                "simulate_sweep",
                attacks=tuple(attacks) if attacks is not None else None,
                defenses=tuple(defenses) if defenses is not None else None,
                secret=secret,
                model=model,
            )
        )

    def _run_simulate_sweep(self, spec: ScenarioSpec, parallel: Optional[int]) -> Result:
        from .uarch.defenses import SimDefense
        from .uarch.timing.scheduler import DEFAULT_MODEL
        from .uarch.timing.validate import SCENARIOS

        model = decode_model(spec.get("model"))
        run_model = model if model is not None else DEFAULT_MODEL
        secret = decode_secret(spec.get("secret"))
        attacks = spec.get("attacks")
        defenses = spec.get("defenses")
        chosen_attacks = list(attacks) if attacks is not None else sorted(SCENARIOS)
        chosen_defenses: List[Optional[SimDefense]] = (
            [
                None if defense is None else decode_sim_defense(defense)
                for defense in defenses
            ]
            if defenses is not None
            else [None] + list(SimDefense)
        )
        combos = sorted(
            (
                (attack, () if defense is None else (defense.name,))
                for attack in chosen_attacks
                for defense in chosen_defenses
            ),
            key=lambda combo: (combo[0], combo[1]),
        )
        rows = [
            self.simulate(
                attack,
                [SimDefense[name] for name in defense_names],
                secret=secret,
                model=model,
            ).data
            for attack, defense_names in combos
        ]
        data = {
            "attacks": len(chosen_attacks),
            "defenses": len(chosen_defenses),
            "contended": run_model.contended,
            "runs": len(rows),
            "leaking": sum(1 for row in rows if row["transmit_beats_squash"]),
            "rows": rows,
        }
        return Result(
            kind="simulate",
            subject=f"sweep {len(chosen_attacks)}x{len(chosen_defenses)}",
            ok=True,
            cache="none",
            data=data,
            payload=rows,
        )

    def _decode_point(self, spec: ScenarioSpec) -> Tuple:
        """Session-memoized :func:`_decode_simulate_point`.

        Keyed on the raw parameter values; unhashable parameters (a dict
        config, say) simply skip the memo.  Decoding is deterministic, so a
        hit is byte-equivalent to re-decoding -- it only skips the repeated
        defense/model/config resolution on warm serves.
        """
        key = (
            spec.get("attack"),
            spec.get("defenses"),
            spec.get("config"),
            spec.get("secret"),
            spec.get("model"),
        )
        try:
            cached = self._point_decodes.get(key)
        except TypeError:
            return _decode_simulate_point(spec)
        if cached is None:
            cached = _decode_simulate_point(spec)
            self._store(self._point_decodes, key, cached)
        return cached

    # ======================================================================
    # The differential fuzzing plane (repro.fuzz)
    # ======================================================================
    def _run_fuzz_point(self, spec: ScenarioSpec, parallel: Optional[int]) -> Result:
        """One generated gadget through both leak oracles.

        The spec pins the generator coordinates and (optionally) the
        program's content hash -- a ``sha`` mismatch means the generator no
        longer builds what this spec was addressed under, and the point
        fails loudly rather than serve a verdict about a different program.
        """
        from .fuzz.generator import FUZZ_SECRET, dual_verdict, make_case

        seed = int(spec.get("seed"))
        index = int(spec.get("index"))
        secret = decode_secret(spec.get("secret"))
        planted = FUZZ_SECRET if secret is None else secret
        inject = spec.get("inject")
        model_name = spec.get("model")
        model = decode_model(model_name) if model_name is not None else None
        case = make_case(seed, index)
        pinned = spec.get("sha")
        if pinned is not None and pinned != case.sha:
            raise ValueError(
                f"fuzz_point {seed}/{index}: generator drift -- spec pins "
                f"program {str(pinned)[:12]} but the generator now builds "
                f"{case.sha[:12]}"
            )
        # The verdict depends on the program, not on its coordinates: a
        # repeated program is one lookup.
        key = (case.sha, planted, inject, model)
        verdict = self._fuzz_verdicts.get(key)
        cache_state = "cold" if verdict is None else "warm"
        self._record("fuzz_verdicts", hit=verdict is not None)
        if verdict is None:
            verdict = dual_verdict(
                case, secret=planted, inject=inject, engine=self, model=model
            )
            self._store(self._fuzz_verdicts, key, verdict)
        data: Dict[str, object] = {
            "seed": seed,
            "index": index,
            "sha": case.sha,
            "instructions": case.size,
            "bucket": case.shape.bucket,
            "inject": inject,
            "leaked_secret": verdict.recovered == planted,
        }
        data.update(case.shape.to_dict())
        data.update(verdict.to_dict())
        return Result(
            kind="fuzz_point",
            subject=f"fuzz {seed}/{index}: {case.shape.describe()}",
            ok=verdict.agrees,
            cache=cache_state,
            data=data,
            payload=case,
        )

    def _run_fuzz_campaign(
        self, spec: ScenarioSpec, parallel: Optional[int]
    ) -> Result:
        """A seeded campaign: chunked, checkpointed grids of fuzz points."""
        from .fuzz.campaign import FuzzCampaign

        campaign = FuzzCampaign.from_spec(self, spec)
        data = campaign.execute(parallel=parallel)
        ok = data["disagreed"] == 0 and data["quarantined"] == 0
        return Result(
            kind="fuzz_campaign",
            subject=f"fuzz campaign seed={campaign.seed} count={campaign.count}",
            ok=ok,
            cache="none",
            data=data,
            payload=None,
        )

    def run_fuzz_campaign(
        self,
        *,
        seed: int,
        count: int,
        secret: Optional[int] = None,
        model: Optional[str] = None,
        inject: Optional[str] = None,
        budget: Optional[float] = None,
        parallel: Optional[int] = None,
        on_point: Optional[Callable[[GridPoint], None]] = None,
        refresh: bool = False,
    ) -> Result:
        """Run one differential fuzzing campaign (``repro fuzz``).

        Equivalent to ``run(ScenarioSpec("fuzz_campaign", ...))`` with two
        campaign-runner extras the generic path cannot express: a streaming
        ``on_point`` callback for live progress, and ``refresh`` to bypass a
        warm campaign envelope while still serving every completed point
        from its checkpoint -- the ``--resume`` semantics (a budget-stopped
        or killed campaign picks up exactly where it left off).
        """
        from .fuzz.campaign import FuzzCampaign

        campaign = FuzzCampaign(
            self,
            seed=seed,
            count=count,
            secret=secret,
            model=model,
            inject=inject,
            budget=budget,
        )
        spec = campaign.spec()
        if not refresh and on_point is None:
            return self.run(spec, parallel=parallel)
        key = spec.content_hash()
        aliased = True
        if self.store is not None:
            aliased = getattr(self.store, "aliases_values", True)
            if not refresh:
                cached = self.store.get(key)
                if isinstance(cached, Result):
                    return _warm_envelope(cached, aliased)
        self._runs_total.inc(kind="fuzz_campaign")
        data = campaign.execute(parallel=parallel, on_point=on_point)
        ok = data["disagreed"] == 0 and data["quarantined"] == 0
        result = Result(
            kind="fuzz_campaign",
            subject=f"fuzz campaign seed={campaign.seed} count={campaign.count}",
            ok=ok,
            cache="none",
            data=data,
            payload=None,
        )
        if self.store is not None:
            self.store.put(key, _store_snapshot(result, aliased))
        return result

    def validate_timing(
        self,
        model: Optional["TimingModel"] = None,
        attacks: Optional[Sequence[str]] = None,
    ) -> Result:
        """Cross-check Theorem 1 for every registry attack (timing vs TSG).

        Deprecated spelling of ``run(ScenarioSpec("validate_timing", ...))``.

        ``model`` selects the timing-plane configuration; pass
        :data:`~repro.uarch.timing.scheduler.CONTENDED_MODEL` to validate
        the race with bounded FU ports and CDB.
        """
        return self.run(
            ScenarioSpec(
                "validate_timing",
                model=model,
                attacks=tuple(attacks) if attacks is not None else None,
            )
        )

    def _run_validate_timing(self, spec: ScenarioSpec, parallel: Optional[int]) -> Result:
        from .uarch.timing.validate import cross_validate

        model = decode_model(spec.get("model"))
        attacks = spec.get("attacks")
        checks = cross_validate(
            list(attacks) if attacks is not None else None, model=model
        )
        data = {
            "attacks": len(checks),
            "contended": bool(model is not None and model.contended),
            "agreeing": sum(1 for check in checks if check.agrees),
            "disagreeing": sorted(check.attack for check in checks if not check.agrees),
            "rows": [check.to_dict() for check in checks],
        }
        return Result(
            kind="simulate",
            subject="theorem1-validation",
            ok=all(check.agrees for check in checks),
            cache="none",
            data=data,
            payload=checks,
        )

    def ablate_window(
        self,
        attacks: Optional[Sequence[str]] = None,
        *,
        window_grid: Optional[Sequence[Tuple[int, int]]] = None,
        port_configs: Optional[Sequence[Tuple[str, Dict[str, Optional[int]]]]] = None,
        secret: Optional[int] = None,
    ) -> Result:
        """The paper's window-length ablation, in measured cycles.

        Deprecated spelling of ``run(ScenarioSpec("window_ablation", ...))``.

        Sweeps every attack over a (ROB size, RS entries) x port-configuration
        grid of :class:`~repro.uarch.timing.scheduler.TimingModel` variants
        and reports the measured speculation-window length, the transmit /
        squash race and the port/CDB stall provenance of each run.  Runs ride
        the :meth:`simulate` content-hash cache (attack x config x secret x
        model), so aliased attacks share one run, and rows come back sorted
        by (attack, ROB, RS, ports).

        Each port configuration also carries a :class:`~repro.channels.
        contention.ContentionChannel` transmission: under a bounded
        configuration the FU-occupancy delta is a nonzero number of cycles
        (the covert channel works), under the unbounded machine it collapses
        to zero -- the structural reason the pre-contention timing plane
        could not measure this channel family.
        """
        return self.run(
            ScenarioSpec(
                "window_ablation",
                attacks=tuple(attacks) if attacks is not None else None,
                window_grid=(
                    tuple(tuple(point) for point in window_grid)
                    if window_grid is not None
                    else None
                ),
                port_configs=(
                    tuple((label, dict(overrides)) for label, overrides in port_configs)
                    if port_configs is not None
                    else None
                ),
                secret=secret,
            )
        )

    def _run_window_ablation(self, spec: ScenarioSpec, parallel: Optional[int]) -> Result:
        from dataclasses import replace

        from .channels.contention import (
            ContentionChannel,
            PortContentionSurface,
            WIDE_WINDOW_MODEL,
        )
        from .uarch.timing.scheduler import DEFAULT_MODEL
        from .uarch.timing.validate import SCENARIOS

        attacks = spec.get("attacks")
        window_grid = spec.get("window_grid")
        port_configs = spec.get("port_configs")
        secret = decode_secret(spec.get("secret"))
        chosen = list(attacks) if attacks is not None else sorted(SCENARIOS)
        grid = (
            [tuple(point) for point in window_grid]
            if window_grid is not None
            else list(DEFAULT_WINDOW_GRID)
        )
        configs = (
            [(label, dict(overrides)) for label, overrides in port_configs]
            if port_configs is not None
            else list(DEFAULT_PORT_CONFIGS)
        )
        combos = [
            (attack, rob, rs, label,
             replace(DEFAULT_MODEL, rob_size=rob, rs_entries=rs, **overrides))
            for attack in sorted(chosen)
            for rob, rs in grid
            for label, overrides in configs
        ]
        combos.sort(key=lambda combo: combo[:4])
        rows: List[Dict[str, object]] = []
        for attack, rob, rs, label, model in combos:
            result = self.simulate(attack, model=model, secret=secret)
            trace = result.payload.timing
            row = {
                "attack": attack,
                "scenario": result.data["scenario"],
                "rob_size": rob,
                "rs_entries": rs,
                "ports": label,
                "cycles": result.data.get("cycles"),
                "window_cycles": result.data.get("window_cycles"),
                "transmit_cycle": result.data.get("transmit_cycle"),
                "squash_cycle": result.data.get("squash_cycle"),
                "transmit_beats_squash": result.data["transmit_beats_squash"],
                "leaked": result.data["leaked"],
                "port_stall_cycles": trace.port_stall_cycles if trace else 0,
                "cdb_stall_cycles": trace.cdb_stall_cycles if trace else 0,
            }
            rows.append(row)
        channel_value = 11  # arbitrary nibble-plus: exercises a multi-op burst
        channel_rows: List[Dict[str, object]] = []
        for label, overrides in configs:
            channel = ContentionChannel(
                PortContentionSurface(replace(WIDE_WINDOW_MODEL, **overrides))
            )
            observation = channel.transmit(channel_value)
            channel_rows.append(
                {
                    "ports": label,
                    "value": channel_value,
                    "recovered": observation.value,
                    "detected": observation.detected,
                    "unit_cycle_delta": channel.unit_delta,
                    "cycle_delta": observation.latencies[1] - observation.latencies[0],
                    "baseline_cycles": observation.latencies[0],
                    "probe_cycles": observation.latencies[1],
                }
            )
        data = {
            "attacks": len(chosen),
            "models": len(grid) * len(configs),
            "window_grid": [list(point) for point in grid],
            "port_configs": {label: dict(overrides) for label, overrides in configs},
            "runs": len(rows),
            "leaking": sum(1 for row in rows if row["transmit_beats_squash"]),
            "rows": rows,
            "contention_channel": channel_rows,
        }
        return Result(
            kind="window_ablation",
            subject=f"window-ablation {len(chosen)}x{len(grid) * len(configs)}",
            ok=True,
            cache="none",
            data=data,
            payload=rows,
        )

    # -- program patching and defense ablation --------------------------------
    def patch(
        self, program: Program, protected_symbols: Optional[Sequence[str]] = None
    ) -> Result:
        """Analyze a program, insert fences, re-analyze (Figure 9 patch flow).

        Deprecated spelling of ``run(ScenarioSpec("patch", program=...))``.

        Both analyses run through this session's artifact cache; the envelope
        carries the patch summary and the patched listing.
        """
        return self.run(
            ScenarioSpec(
                "patch",
                program=program,
                protected_symbols=(
                    tuple(protected_symbols) if protected_symbols is not None else None
                ),
            )
        )

    def _run_patch(self, spec: ScenarioSpec, parallel: Optional[int]) -> Result:
        from .graphtool.patcher import patch_program

        program = decode_program(spec.get("program"), spec.get("name"))
        protected_symbols = spec.get("protected_symbols")
        patch = patch_program(program, protected_symbols, engine=self)
        data = {
            "program": program.name,
            "fences_inserted": list(patch.fences_inserted),
            "unpatchable_findings": list(patch.unpatchable_findings),
            "vulnerable_before": patch.report_before.vulnerable,
            "vulnerable_after": patch.report_after.vulnerable,
            "access_vulnerabilities_removed": patch.access_vulnerabilities_removed,
            "patched_listing": patch.patched.listing(),
        }
        return Result(
            kind="patch",
            subject=program.name,
            ok=patch.access_vulnerabilities_removed,
            cache="none",
            data=data,
            payload=patch,
        )

    def ablation(
        self,
        attack: str,
        defenses: Optional[Sequence["SimDefense"]] = None,
        secret: Optional[int] = None,
        config: Optional["UarchConfig"] = None,
    ) -> Result:
        """Run one exploit with no defense, then under each simulator defense.

        Deprecated spelling of ``run(ScenarioSpec("ablation", attack=...))``.
        The per-defense runs expand to an explicit exploit grid, run
        serially in-process.
        """
        return self.run(
            ScenarioSpec(
                "ablation",
                attack=attack,
                defenses=tuple(defenses) if defenses is not None else None,
                secret=secret,
                config=config,
            )
        )

    def _run_ablation(self, spec: ScenarioSpec, parallel: Optional[int]) -> Result:
        from .exploits.harness import AblationRow, DEFAULT_SECRET, EXPLOITS
        from .uarch.config import DEFAULT_CONFIG
        from .uarch.defenses import SimDefense

        attack = spec.get("attack")
        if attack not in EXPLOITS:
            raise KeyError(
                f"unknown exploit {attack!r}; known: {', '.join(sorted(EXPLOITS))}"
            )
        secret = decode_secret(spec.get("secret"))
        planted = DEFAULT_SECRET if secret is None else secret
        config = decode_config(spec.get("config"))
        base = config if config is not None else DEFAULT_CONFIG
        defenses = spec.get("defenses")
        selected = (
            [decode_sim_defense(defense) for defense in defenses]
            if defenses is not None
            else list(SimDefense)
        )
        # The undefended baseline followed by one point per defense, in
        # caller order -- an explicit grid, kept off the session pool.
        points = [
            ScenarioSpec("exploit", exploit=attack, secret=planted, config=base)
        ] + [
            ScenarioSpec(
                "exploit",
                exploit=attack,
                secret=planted,
                config=base.with_defenses(defense),
            )
            for defense in selected
        ]
        grid_result = self.run_grid(ScenarioGrid.explicit(points), parallel=1)
        leaks = [bool(point.data["success"]) for point in grid_result.payload]
        rows = [AblationRow(attack, None, leaks[0])] + [
            AblationRow(attack, defense, leaked)
            for defense, leaked in zip(selected, leaks[1:])
        ]
        baseline = rows[0]
        defended = rows[1:]
        data = {
            "attack": attack,
            "baseline_leaks": baseline.leaked,
            "defenses": len(defended),
            "effective": sum(1 for row in defended if not row.leaked),
            "rows": [
                {
                    "defense": row.defense_name,
                    "strategy": row.strategy_name,
                    "leaked": row.leaked,
                }
                for row in rows
            ],
        }
        return Result(
            kind="ablation",
            subject=attack,
            ok=any(not row.leaked for row in defended),
            cache="none",
            data=data,
            payload=rows,
        )


# ---------------------------------------------------------------------------
# Row serializers shared by the sweeps and the reporting layer
# ---------------------------------------------------------------------------
def _simulate_row(
    attack: str,
    scenario: str,
    config: "UarchConfig",
    result: "ExploitResult",
    tsg_memo: Optional[Dict[str, Optional[bool]]] = None,
) -> Dict[str, object]:
    """One timing-simulation row: functional verdict + measured race.

    ``tsg_memo`` (keyed by attack name) caches the Theorem-1 verdict across
    rows: rebuilding the registry attack graph dominates a warm serve, and
    the verdict is deterministic per variant, so engines pass their
    session-scoped memo here.
    """
    trace = result.timing
    defense_names = sorted(defense.name.lower() for defense in config.defenses)
    row: Dict[str, object] = {
        "attack": attack,
        "scenario": scenario,
        "defenses": defense_names,
        "leaked": result.success,
        "recovered": result.recovered,
        "speculative_windows": result.stats.speculative_windows,
        "transient_instructions": result.stats.transient_instructions,
    }
    if trace is not None:
        row.update(
            {
                "cycles": trace.cycles,
                "windows": len(trace.windows),
                "transmit_cycle": trace.transmit_cycle,
                "squash_cycle": trace.squash_cycle,
                "window_cycles": trace.window_cycles,
                "transmit_beats_squash": trace.transmit_beats_squash,
            }
        )
    else:  # pragma: no cover - the timing harness always records a trace
        row["transmit_beats_squash"] = result.success
    if not config.defenses:
        if tsg_memo is not None and attack in tsg_memo:
            tsg_leaks = tsg_memo[attack]
        else:
            from .attacks.registry import ALL_VARIANTS
            from .defenses.evaluation import attack_succeeds

            variant = ALL_VARIANTS.get(attack)
            tsg_leaks = None if variant is None else attack_succeeds(variant.build_graph())
            if tsg_memo is not None:
                tsg_memo[attack] = tsg_leaks
        if tsg_leaks is not None:
            row["tsg_leaks"] = tsg_leaks
            row["theorem1_agrees"] = tsg_leaks == row["transmit_beats_squash"]
    return row



def _evaluation_row(evaluation: "DefenseEvaluation") -> Dict[str, object]:
    return {
        "defense": evaluation.defense_key,
        "attack": evaluation.attack_key,
        "strategy": evaluation.strategy.value,
        "applicable": evaluation.applicable,
        "leaked_before": evaluation.leaked_before,
        "leaked_after": evaluation.leaked_after,
        "effective": evaluation.effective,
        "security_edges_added": evaluation.security_edges_added,
        "notes": evaluation.notes,
    }


def _exploit_row(result: "ExploitResult") -> Dict[str, object]:
    return {
        "attack": result.attack,
        "secret": result.secret,
        "recovered": result.recovered,
        "success": result.success,
        "speculative_windows": result.stats.speculative_windows,
        "transient_instructions": result.stats.transient_instructions,
        "squashes": result.stats.squashes,
        "faults": result.stats.faults,
        "notes": result.notes,
    }


# ---------------------------------------------------------------------------
# The default session shared by the legacy free functions
# ---------------------------------------------------------------------------
_DEFAULT_ENGINE: Optional[Engine] = None


def default_engine() -> Engine:
    """The module-wide engine the legacy free functions delegate to.

    Never hands out a closed session: if the current default was closed
    (e.g. by ``set_default_engine(None)`` or a ``with`` block), the next
    caller gets a fresh engine instead of resurrecting the old one's pool.
    """
    global _DEFAULT_ENGINE
    if _DEFAULT_ENGINE is None or _DEFAULT_ENGINE.closed:
        _DEFAULT_ENGINE = Engine()
    return _DEFAULT_ENGINE


def set_default_engine(engine: Optional[Engine]) -> Optional[Engine]:
    """Swap the default engine (tests, custom pool sizes); returns the old one.

    ``set_default_engine(None)`` ends the default session: the engine being
    replaced has its worker pool closed (nothing else will ever drain it),
    and the next :func:`default_engine` call creates a fresh session.
    """
    global _DEFAULT_ENGINE
    previous = _DEFAULT_ENGINE
    _DEFAULT_ENGINE = engine
    if engine is None and previous is not None:
        previous.close()
    return previous


def halt_default_engine() -> None:
    """Hard-stop the default session, if any (the Ctrl-C backstop).

    Unlike ``set_default_engine(None)`` this never joins workers -- a hung
    pool would block the interpreter's exit handlers indefinitely.
    """
    if _DEFAULT_ENGINE is not None and not _DEFAULT_ENGINE.closed:
        _DEFAULT_ENGINE.halt()
