"""Tests for the OoO timing schedulers (event-driven vs rescan baseline).

The contention sections pin the PR-4 specification: per-kind functional-unit
ports and a width-limited common data bus with deterministic oldest-first
arbitration, implemented independently in both schedulers.  The unbounded
configuration must reproduce the pre-contention schedules byte-for-byte
(property-tested below), so existing traces cannot regress.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.exploits.harness import EXPLOITS
from repro.uarch.timing import (
    CONTENDED_MODEL,
    DEFAULT_MODEL,
    SERIALIZED_MODEL,
    DynamicOp,
    EventScheduler,
    RescanScheduler,
    TimingCPU,
    TimingModel,
    WindowRecord,
    build_trace,
)


def op(seq, reads=(), writes=(), latency=1, kind="alu", **extra):
    return DynamicOp(
        seq=seq,
        pc=seq,
        text=kind,
        kind=kind,
        reads=tuple(reads),
        writes=tuple(writes),
        latency=latency,
        **extra,
    )


WIDE = TimingModel(dispatch_width=8, commit_width=8, rob_size=64, rs_entries=64)


class TestEventSchedulerBasics:
    def test_empty_stream(self):
        schedule = EventScheduler().schedule([])
        assert schedule.cycles == 0

    def test_independent_ops_overlap(self):
        ops = [op(0, writes=["a"]), op(1, writes=["b"]), op(2, writes=["c"])]
        schedule = EventScheduler(WIDE).schedule(ops)
        assert schedule.dispatch == [0, 0, 0]
        assert schedule.issue == [1, 1, 1]
        assert schedule.complete == [2, 2, 2]

    def test_dependency_chain_serializes(self):
        ops = [
            op(0, writes=["a"], latency=3),
            op(1, reads=["a"], writes=["b"], latency=2),
            op(2, reads=["b"], writes=["c"]),
        ]
        schedule = EventScheduler(WIDE).schedule(ops)
        # op0: issue 1, complete 4; op1 wakes at 5, completes 7; op2 at 8.
        assert schedule.issue == [1, 5, 8]
        assert schedule.complete == [4, 7, 9]

    def test_long_latency_producer_delays_consumer(self):
        ops = [op(0, writes=["x"], latency=200, kind="load"), op(1, reads=["x"])]
        schedule = EventScheduler(WIDE).schedule(ops)
        assert schedule.complete[0] == 201
        assert schedule.issue[1] == 202

    def test_rat_renames_to_youngest_writer(self):
        ops = [
            op(0, writes=["a"], latency=50),
            op(1, writes=["a"], latency=1),
            op(2, reads=["a"]),
        ]
        schedule = EventScheduler(WIDE).schedule(ops)
        # op2 depends on op1 (the youngest writer), not the slow op0.
        assert schedule.issue[2] == schedule.complete[1] + 1

    def test_dispatch_width_limits_per_cycle(self):
        model = TimingModel(dispatch_width=2, commit_width=8, rob_size=64, rs_entries=64)
        ops = [op(i) for i in range(5)]
        schedule = EventScheduler(model).schedule(ops)
        assert schedule.dispatch == [0, 0, 1, 1, 2]

    def test_rob_stall_blocks_dispatch(self):
        model = TimingModel(dispatch_width=8, commit_width=1, rob_size=2, rs_entries=8)
        ops = [op(i, latency=1) for i in range(4)]
        schedule = EventScheduler(model).schedule(ops)
        # Only two ops can be in flight; later dispatches wait for retirement.
        assert schedule.dispatch[0] == 0 and schedule.dispatch[1] == 0
        assert schedule.dispatch[2] >= schedule.retire[0]
        assert schedule.dispatch[3] >= schedule.retire[1]

    def test_rs_freed_at_completion_not_retirement(self):
        model = TimingModel(dispatch_width=8, commit_width=1, rob_size=64, rs_entries=2)
        ops = [op(i, latency=1) for i in range(4)]
        schedule = EventScheduler(model).schedule(ops)
        assert schedule.dispatch[2] == schedule.complete[0]

    def test_fence_serializes_both_directions(self):
        ops = [
            op(0, writes=["a"], latency=10),
            op(1, kind="fence"),
            op(2, writes=["b"]),
        ]
        schedule = EventScheduler(WIDE).schedule(ops)
        assert schedule.issue[1] >= schedule.complete[0] + 1  # waits for older
        assert schedule.issue[2] >= schedule.complete[1] + 1  # younger waits

    def test_retirement_is_in_order(self):
        ops = [op(0, latency=100), op(1, latency=1)]
        schedule = EventScheduler(WIDE).schedule(ops)
        assert schedule.complete[1] < schedule.complete[0]
        assert schedule.retire[1] > schedule.retire[0] or (
            schedule.retire[1] == schedule.retire[0]
        )
        assert schedule.retire[0] >= schedule.complete[0] + 1


class TestWindowTiming:
    def test_squash_and_transmit_cycles(self):
        ops = [
            op(0, writes=["f"], latency=200, kind="load"),  # slow authorization data
            op(1, reads=["f"], kind="branch"),  # trigger
            op(2, writes=["s"], latency=4, kind="load", transient=True, window=0),
            op(3, reads=["s"], kind="load", transient=True, window=0, is_send=True),
        ]
        window = WindowRecord(window_id=0, trigger_seq=1, kind="branch", outcome="squash")
        window.transient_seqs = [2, 3]
        schedule = EventScheduler(WIDE).schedule(ops)
        trace = build_trace(ops, [window], schedule, WIDE, miss_latency=200)
        timing = trace.windows[0]
        assert timing.resolve_cycle == schedule.complete[1]  # branch kind: no delay
        assert timing.squash_cycle == timing.resolve_cycle + WIDE.squash_penalty
        assert timing.transmit_cycle == schedule.issue[3]
        assert timing.leaked_in_time  # send issued long before the late squash
        assert trace.transmit_beats_squash

    def test_fault_window_gets_resolution_delay(self):
        ops = [op(0, writes=["x"], latency=4, kind="load")]
        window = WindowRecord(window_id=0, trigger_seq=0, kind="fault", outcome="squash")
        schedule = EventScheduler(WIDE).schedule(ops)
        trace = build_trace(ops, [window], schedule, WIDE, miss_latency=200)
        assert trace.windows[0].resolve_cycle == schedule.complete[0] + 200

    def test_no_send_means_no_leak(self):
        ops = [
            op(0, kind="branch"),
            op(1, transient=True, window=0, blocked=True),
        ]
        window = WindowRecord(window_id=0, trigger_seq=0, kind="branch", outcome="squash")
        window.transient_seqs = [1]
        schedule = EventScheduler(WIDE).schedule(ops)
        trace = build_trace(ops, [window], schedule, WIDE, miss_latency=200)
        assert trace.windows[0].transmit_cycle is None
        assert not trace.transmit_beats_squash

    def test_committed_window_has_no_squash_cycle(self):
        ops = [op(0, kind="branch"), op(1, transient=True, window=0)]
        window = WindowRecord(window_id=0, trigger_seq=0, kind="branch", outcome="commit")
        window.transient_seqs = [1]
        schedule = EventScheduler(WIDE).schedule(ops)
        trace = build_trace(ops, [window], schedule, WIDE, miss_latency=200)
        assert trace.windows[0].squash_cycle is None


# ---------------------------------------------------------------------------
# Differential testing: the event engine must equal the rescan baseline
# ---------------------------------------------------------------------------
REGS = ["a", "b", "c", "d", "e", "FLAGS"]


def random_stream(rng: random.Random, length: int):
    ops = []
    for seq in range(length):
        kind = rng.choice(
            ["alu", "alu", "alu", "load", "store", "fence", "nop",
             "mul", "branch", "jump"]
        )
        reads = tuple(rng.sample(REGS, rng.randint(0, 2)))
        writes = tuple(rng.sample(REGS, rng.randint(0, 1)))
        latency = rng.choice([1, 1, 2, 4, 200]) if kind == "load" else rng.randint(1, 4)
        ops.append(op(seq, reads=reads, writes=writes, latency=latency, kind=kind))
    return ops


def random_contended_model(rng: random.Random) -> TimingModel:
    """A random port/CDB configuration (including unbounded pools)."""
    def limit():
        return rng.choice([None, 1, 1, 2, 3])

    return TimingModel(
        dispatch_width=rng.randint(1, 4),
        commit_width=rng.randint(1, 4),
        rob_size=rng.randint(4, 48),
        rs_entries=rng.randint(2, 32),
        alu_ports=limit(),
        load_store_ports=limit(),
        branch_ports=limit(),
        mul_ports=limit(),
        cdb_width=limit(),
    )


@pytest.mark.parametrize("seed", range(8))
def test_event_equals_rescan_on_random_streams(seed):
    rng = random.Random(seed)
    ops = random_stream(rng, rng.randint(1, 60))
    model = TimingModel(
        dispatch_width=rng.randint(1, 4),
        commit_width=rng.randint(1, 4),
        rob_size=rng.randint(4, 48),
        rs_entries=rng.randint(2, 32),
    )
    assert EventScheduler(model).schedule(ops) == RescanScheduler(model).schedule(ops)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    length=st.integers(min_value=1, max_value=40),
    width=st.integers(min_value=1, max_value=4),
    rob=st.integers(min_value=2, max_value=24),
    rs=st.integers(min_value=1, max_value=16),
)
def test_event_equals_rescan_property(seed, length, width, rob, rs):
    rng = random.Random(seed)
    ops = random_stream(rng, length)
    model = TimingModel(dispatch_width=width, commit_width=width, rob_size=rob, rs_entries=rs)
    event = EventScheduler(model).schedule(ops)
    rescan = RescanScheduler(model).schedule(ops)
    assert event == rescan
    assert event.cycles == rescan.cycles


# ---------------------------------------------------------------------------
# Contention: the TimingModel surface
# ---------------------------------------------------------------------------
class TestTimingModelContention:
    def test_default_model_is_uncontended(self):
        assert not DEFAULT_MODEL.contended
        for pool in ("alu", "load_store", "branch", "mul"):
            assert DEFAULT_MODEL.port_limit(pool) is None

    def test_reference_models_are_contended(self):
        assert CONTENDED_MODEL.contended
        assert SERIALIZED_MODEL.contended
        assert SERIALIZED_MODEL.port_limit("alu") == 1
        assert CONTENDED_MODEL.port_limit("load_store") == 2
        assert CONTENDED_MODEL.cdb_width == 2

    def test_any_single_bound_makes_the_model_contended(self):
        assert TimingModel(mul_ports=1).contended
        assert TimingModel(cdb_width=1).contended

    def test_portless_kinds_have_no_limit(self):
        assert SERIALIZED_MODEL.port_limit(None) is None

    @pytest.mark.parametrize(
        "field", ["alu_ports", "load_store_ports", "branch_ports", "mul_ports",
                  "cdb_width", "dispatch_width", "commit_width", "rob_size",
                  "rs_entries"]
    )
    def test_zero_or_negative_limits_are_rejected(self, field):
        with pytest.raises(ValueError):
            TimingModel(**{field: 0})
        with pytest.raises(ValueError):
            TimingModel(**{field: -1})


# ---------------------------------------------------------------------------
# Contention: pinned unit semantics
# ---------------------------------------------------------------------------
ONE_ALU_PORT = TimingModel(
    dispatch_width=8, commit_width=8, rob_size=64, rs_entries=64, alu_ports=1
)


class TestPortContention:
    @pytest.mark.parametrize("scheduler_cls", [EventScheduler, RescanScheduler])
    def test_single_alu_port_serializes_independent_ops(self, scheduler_cls):
        ops = [op(0, writes=["a"]), op(1, writes=["b"]), op(2, writes=["c"])]
        schedule = scheduler_cls(ONE_ALU_PORT).schedule(ops)
        # All data-ready at cycle 1; the single port issues them one per
        # completion, oldest first.
        assert schedule.ready == [1, 1, 1]
        assert schedule.issue == [1, 2, 3]
        assert schedule.complete == [2, 3, 4]

    @pytest.mark.parametrize("scheduler_cls", [EventScheduler, RescanScheduler])
    def test_other_pools_do_not_contend_for_the_alu_port(self, scheduler_cls):
        ops = [
            op(0, writes=["a"]),
            op(1, writes=["b"], kind="load", latency=4),
            op(2, writes=["c"], kind="mul", latency=4),
        ]
        schedule = scheduler_cls(ONE_ALU_PORT).schedule(ops)
        assert schedule.issue == [1, 1, 1]  # load and mul pools are unbounded

    @pytest.mark.parametrize("scheduler_cls", [EventScheduler, RescanScheduler])
    def test_port_held_for_the_whole_execution(self, scheduler_cls):
        # Units are not pipelined: a long op blocks the pool until broadcast.
        ops = [op(0, writes=["a"], latency=10), op(1, writes=["b"])]
        schedule = scheduler_cls(ONE_ALU_PORT).schedule(ops)
        assert schedule.issue[1] == schedule.complete[0]

    @pytest.mark.parametrize("scheduler_cls", [EventScheduler, RescanScheduler])
    def test_fences_and_nops_need_no_port(self, scheduler_cls):
        model = TimingModel(
            dispatch_width=8, commit_width=8, rob_size=64, rs_entries=64,
            alu_ports=1, load_store_ports=1, branch_ports=1, mul_ports=1,
        )
        ops = [op(0, kind="nop"), op(1, kind="nop"), op(2, kind="nop")]
        schedule = scheduler_cls(model).schedule(ops)
        assert schedule.issue == [1, 1, 1]  # no serialization

    @pytest.mark.parametrize("scheduler_cls", [EventScheduler, RescanScheduler])
    def test_cdb_width_limits_broadcasts_per_cycle(self, scheduler_cls):
        model = TimingModel(
            dispatch_width=8, commit_width=8, rob_size=64, rs_entries=64,
            cdb_width=1,
        )
        ops = [op(0, writes=["a"]), op(1, writes=["b"]), op(2, writes=["c"])]
        schedule = scheduler_cls(model).schedule(ops)
        # All finish execution at cycle 2; the width-1 bus broadcasts one per
        # cycle, oldest first.
        assert schedule.issue == [1, 1, 1]
        assert schedule.complete == [2, 3, 4]

    @pytest.mark.parametrize("scheduler_cls", [EventScheduler, RescanScheduler])
    def test_cdb_loser_keeps_port_until_broadcast(self, scheduler_cls):
        model = TimingModel(
            dispatch_width=8, commit_width=8, rob_size=64, rs_entries=64,
            alu_ports=1, cdb_width=1,
        )
        ops = [
            op(0, writes=["a"], kind="load", latency=2),  # finishes at 3
            op(1, writes=["b"]),  # ALU, issues 1, finishes 2, broadcasts 2
            op(2, writes=["c"]),  # ALU, waits for op1's port
            op(3, writes=["d"], kind="load", latency=2),  # finishes at 3 too
        ]
        schedule = scheduler_cls(model).schedule(ops)
        # At cycle 3 ops 0, 2 and 3 have all finished execution; the width-1
        # bus drains them oldest first over cycles 3, 4 and 5.
        assert schedule.complete == [3, 2, 4, 5]

    def test_unlimited_model_skips_the_contended_path(self):
        # The router must keep the unbounded fast path for uncontended models.
        ops = [op(0, writes=["a"]), op(1, reads=["a"])]
        assert EventScheduler(DEFAULT_MODEL).schedule(ops) == EventScheduler(
            DEFAULT_MODEL
        )._schedule_unbounded(ops)


class TestWorkedExample:
    """The pinned 6-op schedule: 1 ALU port + width-1 CDB, hand-computed.

    Ops 0-3 and 5 are independent single-cycle ALU ops, op 4 a 2-cycle load
    (its pool is unbounded).  Dispatch width 4.  The interesting moments:

    * cycle 1: ops 0-3 are data-ready; the single ALU port issues op 0.
    * cycle 2: op 0 broadcasts and frees the port; op 1 issues.  The load
      (op 4, dispatched at 1) issues on its own pool, finishing at 4.
    * cycle 4: op 2 broadcasts (it won the width-1 bus); op 4 also finished
      this cycle but is younger, so its broadcast defers.  Op 3 takes the
      freed ALU port.
    * cycle 5: op 3 (finished this cycle) beats the still-deferred op 4 on
      the bus again -- oldest-first is by seq, not by how long you waited.
      Op 5 finally gets the ALU port, three cycles after it became ready.
    * cycle 6: op 4 broadcasts, two cycles after its execution finished.
    * cycle 7: op 5 broadcasts; everything retires in order by cycle 8.
    """

    MODEL = TimingModel(
        dispatch_width=4, commit_width=4, rob_size=64, rs_entries=64,
        alu_ports=1, cdb_width=1,
    )
    OPS = staticmethod(lambda: [
        op(0, writes=["a"]),
        op(1, writes=["b"]),
        op(2, writes=["c"]),
        op(3, writes=["d"]),
        op(4, writes=["e"], latency=2, kind="load"),
        op(5, writes=["f"]),
    ])

    @pytest.mark.parametrize("scheduler_cls", [EventScheduler, RescanScheduler])
    def test_hand_computed_schedule(self, scheduler_cls):
        schedule = scheduler_cls(self.MODEL).schedule(self.OPS())
        assert schedule.dispatch == [0, 0, 0, 0, 1, 1]
        assert schedule.ready == [1, 1, 1, 1, 2, 2]
        assert schedule.issue == [1, 2, 3, 4, 2, 5]
        assert schedule.complete == [2, 3, 4, 5, 6, 7]
        assert schedule.retire == [3, 4, 5, 6, 7, 8]
        assert schedule.cycles == 9

    def test_stall_provenance_of_the_example(self):
        schedule = EventScheduler(self.MODEL).schedule(self.OPS())
        trace = build_trace(self.OPS(), [], schedule, self.MODEL, miss_latency=200)
        by_seq = {row.op.seq: row for row in trace.ops}
        # Op 5 waited 3 cycles for the ALU port; op 4's finished result
        # waited 2 cycles for a broadcast slot.
        assert by_seq[5].port_stall == 3 and by_seq[5].port == "alu"
        assert by_seq[4].cdb_stall == 2 and by_seq[4].port == "load_store"
        assert by_seq[0].port_stall == 0 and by_seq[0].cdb_stall == 0
        # Ops 1-3 wait 1, 2, 3 cycles for the ALU port and op 5 waits 3.
        assert trace.port_stall_cycles == 1 + 2 + 3 + 3
        # Op 4 defers 2 broadcast cycles, op 5 one (op 4 outranks it at 6).
        assert trace.cdb_stall_cycles == 2 + 1

    def test_port_occupancy_never_exceeds_the_limit(self):
        schedule = EventScheduler(self.MODEL).schedule(self.OPS())
        trace = build_trace(self.OPS(), [], schedule, self.MODEL, miss_latency=200)
        occupancy = trace.port_occupancy()
        assert max(occupancy["alu"].values()) == 1
        assert max(occupancy["load_store"].values()) == 1


# ---------------------------------------------------------------------------
# Contention: no regression for unbounded configurations (property test)
# ---------------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    length=st.integers(min_value=1, max_value=40),
    width=st.integers(min_value=1, max_value=4),
    rob=st.integers(min_value=2, max_value=24),
    rs=st.integers(min_value=1, max_value=16),
)
def test_unbounded_contended_path_matches_unlimited_scheduler(
    seed, length, width, rob, rs
):
    """With every limit ``None`` the arbitrated path is byte-identical to the
    original unlimited scheduler -- existing traces cannot regress."""
    rng = random.Random(seed)
    ops = random_stream(rng, length)
    model = TimingModel(
        dispatch_width=width, commit_width=width, rob_size=rob, rs_entries=rs
    )
    scheduler = EventScheduler(model)
    assert scheduler._schedule_contended(ops) == scheduler._schedule_unbounded(ops)


@pytest.mark.parametrize("seed", range(6))
def test_huge_finite_limits_match_unbounded(seed):
    """Limits that can never bind must not move a single cycle."""
    rng = random.Random(seed)
    ops = random_stream(rng, rng.randint(1, 50))
    base = TimingModel(dispatch_width=4, commit_width=4, rob_size=48, rs_entries=32)
    huge = TimingModel(
        dispatch_width=4, commit_width=4, rob_size=48, rs_entries=32,
        alu_ports=10**6, load_store_ports=10**6, branch_ports=10**6,
        mul_ports=10**6, cdb_width=10**6,
    )
    assert huge.contended
    assert EventScheduler(huge).schedule(ops) == EventScheduler(base).schedule(ops)
    assert RescanScheduler(huge).schedule(ops) == RescanScheduler(base).schedule(ops)


# ---------------------------------------------------------------------------
# Contention: event engine == rescan oracle (differential)
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(20))
def test_event_equals_rescan_under_contention(seed):
    rng = random.Random(seed)
    ops = random_stream(rng, rng.randint(1, 60))
    model = random_contended_model(rng)
    assert EventScheduler(model).schedule(ops) == RescanScheduler(model).schedule(ops)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    length=st.integers(min_value=1, max_value=40),
)
def test_event_equals_rescan_under_contention_property(seed, length):
    rng = random.Random(seed)
    ops = random_stream(rng, length)
    model = random_contended_model(rng)
    event = EventScheduler(model).schedule(ops)
    rescan = RescanScheduler(model).schedule(ops)
    assert event == rescan
    assert event.cycles == rescan.cycles


@pytest.mark.parametrize("name", sorted(EXPLOITS))
@pytest.mark.parametrize(
    "model", [CONTENDED_MODEL, SERIALIZED_MODEL], ids=["contended", "serialized"]
)
def test_event_equals_rescan_on_exploit_corpus(name, model):
    """Differential check on the real dynamic-op streams of every exploit."""
    from repro.uarch import UarchConfig

    result_cpu = []

    class RecordingCPU(TimingCPU):
        def __init__(self, program, config=UarchConfig(), **kwargs):
            super().__init__(program, config, **kwargs)
            result_cpu.append(self)

    EXPLOITS[name](UarchConfig(), 0x5A, cpu_cls=RecordingCPU)
    streams = [cpu.last_ops for cpu in result_cpu if cpu.last_ops]
    assert streams, "exploit recorded no dynamic ops"
    for ops in streams:
        assert (
            EventScheduler(model).schedule(ops)
            == RescanScheduler(model).schedule(ops)
        )
