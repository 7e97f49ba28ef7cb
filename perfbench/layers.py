"""Layer spans for the traced run.

The benchmark measures each layer of ``repro`` from outside: it wraps the
public function that enters the layer, records one span per call (layer,
start, end, parent span, thread) in memory, and restores the original
function afterwards.  Nothing under ``src/`` knows about these wrappers.

A layer's *self* time is its busy time minus the time its direct child
spans cover.  Spans nest per thread, so on a workload whose spans all run
on one thread the self times of every layer plus the wall time no span
covers (``untraced``) add up to the traced wall time.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: Attribute set on every wrapper, so a leftover wrapper can be found.
MARK = "__perfbench_layer__"

#: The layers, in the order they are reported.
LAYERS: Tuple[str, ...] = (
    "fuzz.generate",
    "isa.assemble",
    "isa.content_hash",
    "graphtool.build",
    "tsg.racing_pairs",
    "tsg.verdict",
    "graphtool.analyze",
    "uarch.functional",
    "timing.schedule",
    "channel.prepare",
    "channel.receive",
    "exploits.run",
    "store.get",
    "store.put",
    "engine.run",
    "engine.pool_wait",
)


@dataclass
class Span:
    layer: str
    start: float
    end: float = 0.0
    parent: Optional["Span"] = None
    thread: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


CountFn = Callable[[Dict[str, float], tuple, object], None]


class Recorder:
    """Keeps spans and counts in memory while its wrappers are installed."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._installed: List[Tuple[object, str, object, bool]] = []

    # -- spans ------------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, layer: str) -> Span:
        stack = self._stack()
        span = Span(
            layer,
            self.clock(),
            parent=stack[-1] if stack else None,
            thread=threading.get_ident(),
        )
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        self._stack().pop()

    def wrap(
        self,
        layer: str,
        fn: Callable,
        *,
        fold: bool = False,
        count: Optional[CountFn] = None,
    ) -> Callable:
        """``fn`` inside a span; ``fold`` merges a call into an open span of
        the same layer (an override calling ``super()``)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if fold and stack and stack[-1].layer == layer:
                return fn(*args, **kwargs)
            span = self.open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if count is not None:
                count(self.counts, args, result)
            return result

        setattr(wrapper, MARK, layer)
        return wrapper

    def wrap_iter(self, layer: str, fn: Callable) -> Callable:
        """An iterator-returning ``fn`` with a span around each blocking
        ``next()`` -- the time the caller waits for the next item."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            iterator = iter(fn(*args, **kwargs))
            while True:
                span = self.open(layer)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    self.close(span)
                yield item

        setattr(wrapper, MARK, layer)
        return wrapper

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        if self._installed:
            raise RuntimeError("layer wrappers are already installed")
        try:
            for site in sites():
                layer, owner, attr, options = site
                original, had = _get(owner, attr)
                if options.get("iterator"):
                    wrapper = self.wrap_iter(layer, original)
                else:
                    wrapper = self.wrap(
                        layer,
                        original,
                        fold=options.get("fold", False),
                        count=options.get("count"),
                    )
                _set(owner, attr, wrapper)
                self._installed.append((owner, attr, original, had))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original, had = self._installed.pop()
            if isinstance(owner, dict) or had:
                _set(owner, attr, original)
            else:
                delattr(owner, attr)

    @contextmanager
    def installed(self) -> Iterator["Recorder"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def _get(owner: object, attr: str) -> Tuple[object, bool]:
    if isinstance(owner, dict):
        return owner[attr], True
    if isinstance(owner, type):
        had = attr in vars(owner)
        return (vars(owner)[attr] if had else getattr(owner, attr)), had
    return getattr(owner, attr), True


def _set(owner: object, attr: str, value: object) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


# -- counts recorded at the layer boundaries --------------------------------
def _count_vertices(counts, args, result) -> None:
    counts["graphtool.vertices"] += len(result.graph)


def _count_findings(counts, args, result) -> None:
    counts["graphtool.findings"] += len(result.findings)


def _count_instructions(counts, args, result) -> None:
    counts["uarch.instructions"] += result.instructions


def _count_schedule(counts, args, result) -> None:
    counts["timing.ops"] += len(args[1])
    counts["timing.cycles"] += result.cycles


def _count_probes(counts, args, result) -> None:
    counts["channel.probes"] += args[0].entries


def _count_get(counts, args, result) -> None:
    counts["store.gets"] += 1
    counts["store.hits"] += result is not None


def sites() -> List[Tuple[str, object, str, dict]]:
    """Every (layer, owner, attribute, options) the traced run wraps.

    A function imported by name into another module is wrapped at each
    module that looks it up, so every call path passes one wrapper.
    """
    import repro.defenses.evaluation as evaluation_module
    import repro.engine as engine_module
    import repro.fuzz as fuzz_package
    import repro.fuzz.campaign as campaign_module
    import repro.fuzz.generator as generator_module
    import repro.graphtool.analyzer as analyzer_module
    import repro.isa as isa_package
    import repro.isa.assembler as assembler_module
    from repro.channels.flush_reload import FlushReloadChannel
    from repro.core.attack_graph import AttackGraph
    from repro.core.tsg import TopologicalSortGraph
    from repro.engine import Engine
    from repro.exploits.harness import EXPLOITS
    from repro.graphtool.builder import AttackGraphBuilder
    from repro.isa.program import Program
    from repro.store import DiskStore
    from repro.uarch.pipeline import SpeculativeCPU
    from repro.uarch.timing.core import TimingCPU
    from repro.uarch.timing.scheduler import EventScheduler

    functional = {"fold": True, "count": _count_instructions}
    probes = {"count": _count_probes}
    table = [
        ("fuzz.generate", generator_module, "make_case", {}),
        ("fuzz.generate", campaign_module, "make_case", {}),
        ("fuzz.generate", fuzz_package, "make_case", {}),
        ("isa.assemble", assembler_module, "assemble", {}),
        ("isa.assemble", isa_package, "assemble", {}),
        ("isa.content_hash", Program, "content_hash", {}),
        ("graphtool.build", AttackGraphBuilder, "build", {"count": _count_vertices}),
        ("tsg.racing_pairs", TopologicalSortGraph, "all_racing_pairs", {}),
        ("tsg.verdict", AttackGraph, "find_vulnerabilities", {}),
        ("tsg.verdict", evaluation_module, "attack_succeeds", {}),
        ("graphtool.analyze", analyzer_module, "analyze_build", {"count": _count_findings}),
        ("graphtool.analyze", engine_module, "analyze_build", {"count": _count_findings}),
        ("uarch.functional", SpeculativeCPU, "run", functional),
        ("uarch.functional", TimingCPU, "run", functional),
        ("timing.schedule", EventScheduler, "schedule", {"count": _count_schedule}),
        ("channel.prepare", FlushReloadChannel, "prepare", probes),
        ("channel.receive", FlushReloadChannel, "receive", probes),
        ("store.get", DiskStore, "get", {"count": _count_get}),
        ("store.put", DiskStore, "put", {}),
        ("engine.run", Engine, "run", {}),
        ("engine.pool_wait", engine_module, "as_completed", {"iterator": True}),
    ]
    table.extend(("exploits.run", EXPLOITS, name, {}) for name in sorted(EXPLOITS))
    return table


def leftover_wrappers() -> List[str]:
    """``owner.attr`` of every wrapped site that still holds a wrapper."""
    found = []
    for layer, owner, attr, _ in sites():
        value, _had = _get(owner, attr)
        if getattr(value, MARK, None) is not None:
            found.append(f"{getattr(owner, '__name__', type(owner).__name__)}.{attr}")
    return found


# -- arithmetic over recorded spans -----------------------------------------
def layer_totals(spans: Sequence[Span]) -> Dict[str, List[float]]:
    """``{layer: [calls, busy_s, self_s]}`` over ``spans``."""
    children: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            children[id(span.parent)] += span.duration
    totals: Dict[str, List[float]] = {layer: [0, 0.0, 0.0] for layer in LAYERS}
    for span in spans:
        entry = totals.setdefault(span.layer, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += span.duration
        entry[2] += span.duration - children[id(span)]
    return totals


def covered(spans: Sequence[Span], start: float, end: float) -> float:
    """Wall time inside ``[start, end]`` that some root span covers."""
    intervals = sorted(
        (max(span.start, start), min(span.end, end))
        for span in spans
        if span.parent is None
    )
    total = 0.0
    cursor = start
    for lo, hi in intervals:
        lo = max(lo, cursor)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total
