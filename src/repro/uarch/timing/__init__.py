"""Cycle-accurate, event-driven out-of-order timing core.

Why this subsystem exists
-------------------------
The paper models a speculative attack as a *race* on a dependency graph:
Theorem 1 says the covert send and the delayed authorization race exactly
when no path orders them.  The functional interpreter
(:class:`~repro.uarch.pipeline.SpeculativeCPU`) reproduces the *semantics* of
that race -- transient windows, rollback, persistent cache state -- but
counts windows in instructions, so it cannot say *when* the squash lands
relative to the transmit.  This package measures the race in cycles.

The event-queue design
----------------------
The timing plane is a Tomasulo machine driven by a single heap of
cycle-stamped events (:class:`~repro.uarch.timing.scheduler.EventScheduler`):

* instructions **dispatch** in order into a reorder buffer and a reservation
  -station pool, renaming their sources through a register alias table;
* an instruction **wakes up** only when a producer's completion event
  broadcasts on the common data bus -- there is no per-cycle re-scan of every
  in-flight instruction (the ROADMAP item this subsystem closes); idle
  stretches of a 200-cycle cache miss cost nothing because the scheduler
  jumps straight to the next event;
* completion events free reservation stations, retirement events drain the
  ROB in order, and both re-arm stalled dispatch in the same cycle;
* functional units and the broadcast bus are **contended resources** when the
  :class:`~repro.uarch.timing.scheduler.TimingModel` bounds them: each op
  kind issues to one of four port pools (ALU / load-store / branch / mul,
  :func:`~repro.uarch.timing.ops.port_kind`), holds its port from issue to
  broadcast, and at most ``cdb_width`` results broadcast per cycle --
  arbitration is deterministic oldest-first in both schedulers.  Unbounded
  (``None``) limits reproduce the pre-contention semantics exactly, so the
  contended engine is a strict superset of the original one.

:class:`~repro.uarch.timing.scheduler.RescanScheduler` keeps the naive
cycle-by-cycle re-scanning loop alive as a measured baseline; both schedulers
are property-tested to produce identical cycle assignments -- with and
without contention -- and ``benchmarks/run_perf.py`` tracks the event
engine's speedup in ``BENCH_core.json``.

Port/CDB contention is what makes the Section II-C *functional-unit
contention* covert channels measurable: traces record per-op stall
provenance (``ready`` / ``port_stall`` / ``cdb_stall``) and per-cycle port
occupancy, :class:`~repro.channels.contention.ContentionChannel` transmits
through the occupancy delta, and ``Engine.ablate_window`` sweeps ROB/RS/port
counts to reproduce the paper's window-length ablation in measured cycles.

How measured windows map onto TSG races
---------------------------------------
Each speculation window the functional plane opens becomes a
:class:`~repro.uarch.timing.trace.WindowTiming`:

* the window's *trigger* is the instruction whose delayed authorization the
  TSG models as the authorization/resolution vertex; its completion (plus an
  explicit resolution delay for permission/ownership checks that are not
  register dependencies) is the **resolve cycle**, and resolve + recovery
  penalty is the **squash cycle**;
* a transient load that touches a ``shared`` data symbol is the TSG's *send*
  vertex; the cycle its memory request issues is the **transmit cycle**
  (in-flight fills are not recalled by a squash -- the persistence property
  the paper builds covert channels from);
* ``transmit <= squash`` is the measured race outcome.  Theorem 1 predicts
  it equals the TSG verdict (send reachable from no authorization), and
  :func:`~repro.uarch.timing.validate.cross_validate` checks that for every
  attack in the registry.

Entry points
------------
:class:`TimingCPU` is a drop-in :class:`SpeculativeCPU` (same harness
helpers, same exploit corpus) whose :meth:`run` returns a
:class:`TimingResult` carrying the :class:`TimingTrace`.
``Engine.simulate`` / ``repro simulate`` expose it with content-hash caching,
one point at a time or as (attack x defense) sweeps.
"""

from .core import SCHEDULERS, TimingCPU, TimingResult
from .ops import (
    PORT_POOLS,
    DynamicOp,
    WindowRecord,
    instruction_kind,
    port_kind,
    window_kind,
)
from .scheduler import (
    CONTENDED_MODEL,
    DEFAULT_MODEL,
    SERIALIZED_MODEL,
    EventScheduler,
    RescanScheduler,
    Schedule,
    TimingModel,
)
from .trace import ScheduledOp, TimingTrace, TraceEvent, WindowTiming, build_trace

__all__ = [
    "CONTENDED_MODEL",
    "DEFAULT_MODEL",
    "DynamicOp",
    "EventScheduler",
    "PORT_POOLS",
    "RescanScheduler",
    "SCHEDULERS",
    "SERIALIZED_MODEL",
    "Schedule",
    "ScheduledOp",
    "TimingCPU",
    "TimingModel",
    "TimingResult",
    "TimingTrace",
    "TraceEvent",
    "WindowRecord",
    "WindowTiming",
    "build_trace",
    "instruction_kind",
    "port_kind",
    "window_kind",
]
