"""Race conditions on Topological Sort Graphs and Theorem 1.

Section IV-B: a race condition exists between vertices ``u`` and ``v`` of a
TSG if there exist two valid orderings S1 and S2 with ``u`` before ``v`` in S1
and ``v`` before ``u`` in S2.

**Theorem 1.**  For any pair of vertices u and v, u and v do *not* have a race
condition if and only if there exists a directed path connecting u and v.

The paper proves this analytically (Appendix A).  This module provides

* the efficient path-based race check (the practical tool the paper proposes),
* the definition-based check by enumerating orderings (used to validate the
  theorem on concrete graphs, including in the test suite's property tests),
* enumeration of all racing pairs of a graph, and
* construction of witness orderings demonstrating a race.

Performance notes
-----------------
The TSG maintains a bitset transitive closure (see :mod:`repro.core.tsg`),
so :func:`has_race` is O(1) -- two bit tests -- and :func:`find_races` over
the whole graph delegates to ``TopologicalSortGraph.all_racing_pairs``, one
O(V * V/w) sweep over the closure rather than O(V^2) BFS traversals;
:func:`race_free` only counts (``racing_pair_count``, one popcount per vertex).
:func:`has_race_by_enumeration` and :func:`verify_theorem1` intentionally
remain enumeration-based: they exist to validate the fast path against the
paper's definition.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, List, Optional, Sequence, Tuple

from .tsg import TopologicalSortGraph


@dataclass(frozen=True)
class Race:
    """A race condition between two operations of a TSG."""

    first: str
    second: str

    def as_pair(self) -> Tuple[str, str]:
        return (self.first, self.second)

    def involves(self, name: str) -> bool:
        return name in (self.first, self.second)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"race({self.first} <-> {self.second})"


def has_race(graph: TopologicalSortGraph, u: str, v: str) -> bool:
    """Path-based race check (Theorem 1): race iff no path u->v and no path v->u.

    O(1) on the reachability index -- two bit tests.
    """
    if u == v:
        return False
    return not (graph.has_path(u, v) or graph.has_path(v, u))


def has_race_by_enumeration(
    graph: TopologicalSortGraph, u: str, v: str, limit: Optional[int] = None
) -> bool:
    """Definition-based race check: enumerate valid orderings and compare positions.

    Exponential in the worst case -- only use on small graphs (which the
    paper's attack graphs are).  ``limit`` bounds the number of orderings
    inspected.
    """
    if u == v:
        return False
    seen_u_first = False
    seen_v_first = False
    for ordering in graph.all_orderings(limit=limit):
        position = {name: index for index, name in enumerate(ordering)}
        if position[u] < position[v]:
            seen_u_first = True
        else:
            seen_v_first = True
        if seen_u_first and seen_v_first:
            return True
    return False


def witness_orderings(
    graph: TopologicalSortGraph, u: str, v: str
) -> Optional[Tuple[List[str], List[str]]]:
    """Return two valid orderings witnessing a race between ``u`` and ``v``.

    Returns ``None`` when the pair does not race.  The witnesses are built by
    scheduling one endpoint as late as possible in each ordering, which by
    Theorem 1 flips their relative order exactly when no path connects them.
    """
    if not has_race(graph, u, v):
        return None
    order_u_late = graph.topological_order(prefer_late=u)
    order_v_late = graph.topological_order(prefer_late=v)
    pos_u_late = {name: index for index, name in enumerate(order_u_late)}
    pos_v_late = {name: index for index, name in enumerate(order_v_late)}
    first = order_u_late if pos_u_late[v] < pos_u_late[u] else order_v_late
    second = order_v_late if pos_v_late[u] < pos_v_late[v] else order_u_late
    return first, second


def find_races(
    graph: TopologicalSortGraph, among: Optional[Iterable[str]] = None
) -> List[Race]:
    """Enumerate all racing pairs of the graph (or among a subset of vertices).

    The whole-graph case is one batch pass over the reachability index
    (:meth:`~repro.core.tsg.TopologicalSortGraph.all_racing_pairs`); the
    subset case filters that pass down to the requested vertices.
    """
    if among is None:
        return [Race(u, v) for u, v in graph.all_racing_pairs()]
    keep = set(among)
    unknown = [name for name in keep if name not in graph]
    if unknown:
        raise KeyError(f"Unknown vertex in race query: {sorted(unknown)!r}")
    return [
        Race(u, v)
        for u, v in graph.all_racing_pairs()
        if u in keep and v in keep
    ]


def race_free(graph: TopologicalSortGraph) -> bool:
    """``True`` when the graph is a total order (no racing pair at all)."""
    return graph.racing_pair_count() == 0


@dataclass(frozen=True)
class TheoremCheck:
    """Result of exhaustively checking Theorem 1 on a concrete graph."""

    pairs_checked: int
    mismatches: Tuple[Tuple[str, str], ...]

    @property
    def holds(self) -> bool:
        return not self.mismatches


def verify_theorem1(
    graph: TopologicalSortGraph, ordering_limit: Optional[int] = 20000
) -> TheoremCheck:
    """Check Theorem 1 on ``graph`` by comparing both race definitions.

    For every unordered pair of vertices, the path-based verdict
    (:func:`has_race`) is compared with the ordering-enumeration verdict
    (:func:`has_race_by_enumeration`).  They must agree on every pair.
    """
    mismatches = []
    pairs = 0
    for u, v in combinations(graph.vertices, 2):
        pairs += 1
        by_path = has_race(graph, u, v)
        by_enum = has_race_by_enumeration(graph, u, v, limit=ordering_limit)
        if by_path != by_enum:
            mismatches.append((u, v))
    return TheoremCheck(pairs_checked=pairs, mismatches=tuple(mismatches))


def figure2_example() -> TopologicalSortGraph:
    """The TSG of the paper's Figure 2 (vertices A..G).

    Used in documentation, tests, and the Figure 2 benchmark.  The paper notes
    that ``[A,B,C,D,E,F,G]`` and ``[A,C,E,B,D,F,G]`` are valid orderings,
    ``[A,B,D,E,C,F,G]`` is not, and that D and E race.
    """
    graph = TopologicalSortGraph(name="figure2")
    for name in "ABCDEFG":
        graph.add_vertex(name)
    for source, target in [
        ("A", "B"),
        ("A", "C"),
        ("B", "D"),
        ("C", "D"),
        ("C", "E"),
        ("D", "F"),
        ("E", "F"),
        ("F", "G"),
    ]:
        graph.add_edge(source, target)
    return graph
