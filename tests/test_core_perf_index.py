"""Property tests for the TSG reachability index (bitset transitive closure).

The closure is an *index*: every answer it gives must agree with a from-
scratch BFS over the adjacency sets.  These tests pin that equivalence on
random DAGs, including after edge removal (which rebuilds the closure), and
pin the downset-DP ordering counter against explicit enumeration.  The
closure properties run on two inputs: small DAGs that hypothesis explores
edge by edge, and seeded 65-200-vertex DAGs, the size of the analyzer's
larger programs, where each bitmask spans several machine words.  The
closure's count and mask answers (``racing_pair_count``, the racing-mask
AND in ``missing_security_dependencies``) are pinned against the pair list
and the pairwise Theorem-1 check on the same DAGs and on every registry
attack graph.
"""

from __future__ import annotations

import random
from collections import deque
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from repro.attacks.registry import build_all_graphs
from repro.core import TopologicalSortGraph, has_race
from repro.core.nodes import Operation, OperationType
from repro.core.race import find_races, race_free
from repro.core.security_dependency import (
    ProtectionPoint,
    missing_security_dependencies,
)


def bfs_reachable(graph: TopologicalSortGraph, source: str) -> set:
    """Reference reachability: plain BFS over the successor sets."""
    seen = set()
    frontier = deque([source])
    while frontier:
        node = frontier.popleft()
        for nxt in graph.successors(node):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


@st.composite
def random_dags(draw, max_vertices: int = 10):
    """Random DAGs built by only adding forward edges over a vertex ordering."""
    count = draw(st.integers(min_value=2, max_value=max_vertices))
    names = [f"v{i}" for i in range(count)]
    graph = TopologicalSortGraph(name="random")
    for name in names:
        graph.add_vertex(name)
    possible_edges = list(combinations(range(count), 2))
    chosen = draw(
        st.lists(st.sampled_from(possible_edges), unique=True, max_size=len(possible_edges))
    )
    for source, target in chosen:
        graph.add_edge(names[source], names[target])
    return graph


@st.composite
def large_random_dags(draw):
    """Seeded 65-200-vertex DAGs: forward edges, 0 to 3 per vertex on average.

    Drawing every edge through hypothesis would dominate the run time at
    this size, so hypothesis draws the shape (seed, size, density) and a
    seeded RNG places the edges.
    """
    count = draw(st.integers(min_value=65, max_value=200))
    edges = draw(st.integers(min_value=0, max_value=3 * count))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    graph = TopologicalSortGraph(name="random-large")
    for i in range(count):
        graph.add_vertex(f"v{i}")
    for _ in range(edges):
        source, target = sorted(rng.sample(range(count), 2))
        graph.add_edge(f"v{source}", f"v{target}")
    return graph


#: Both DAG inputs of the closure properties, parametrized by size class.
DAG_SIZES = pytest.mark.parametrize(
    "dags", [random_dags(), large_random_dags()], ids=["small", "large"]
)


@DAG_SIZES
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_closure_matches_bfs_reachability(dags, data):
    """has_path / descendants / ancestors must equal BFS answers for all pairs."""
    graph = data.draw(dags)
    reach = {name: bfs_reachable(graph, name) for name in graph.vertices}
    for source in graph.vertices:
        assert graph.descendants(source) == reach[source]
        for target in graph.vertices:
            expected = source == target or target in reach[source]
            assert graph.has_path(source, target) == expected
    for target in graph.vertices:
        expected_anc = {u for u in graph.vertices if u != target and target in reach[u]}
        assert graph.ancestors(target) == expected_anc


@DAG_SIZES
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_closure_survives_edge_removal(dags, data):
    """Removing an edge rebuilds the closure to match BFS again."""
    graph = data.draw(dags)
    edges = graph.edges
    if not edges:
        return
    victim = edges[len(edges) // 2]
    graph.remove_edge(victim.source, victim.target)
    reach = {name: bfs_reachable(graph, name) for name in graph.vertices}
    for source in graph.vertices:
        assert graph.descendants(source) == reach[source]
        assert graph.ancestors(source) == {
            u for u in graph.vertices if u != source and source in reach[u]
        }


@given(random_dags(max_vertices=12))
@settings(max_examples=40, deadline=None)
def test_dp_ordering_count_matches_enumeration(graph):
    """The downset-DP counter equals the backtracking enumerator exactly.

    Both sides are capped at the same limit so sparse 12-vertex graphs
    (up to 12! extensions) stay cheap; under the cap the counts must agree
    exactly, at the cap both must saturate to it.
    """
    cap = 20000
    enumerated = sum(1 for _ in graph.all_orderings(limit=cap))
    assert graph.count_orderings(limit=cap) == enumerated


@DAG_SIZES
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_batch_racing_pairs_match_pairwise_check(dags, data):
    """all_racing_pairs must equal the pairwise Theorem 1 check."""
    graph = data.draw(dags)
    batch = set(map(frozenset, graph.all_racing_pairs()))
    pairwise = {
        frozenset((u, v))
        for u, v in combinations(graph.vertices, 2)
        if has_race(graph, u, v)
    }
    assert batch == pairwise
    assert {frozenset(r.as_pair()) for r in find_races(graph)} == pairwise


@DAG_SIZES
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_racing_pair_count_matches_batch(dags, data):
    """racing_pair_count is the popcount of the pair list, before and after
    edge removal rebuilds the closure."""
    graph = data.draw(dags)
    assert graph.racing_pair_count() == len(graph.all_racing_pairs())
    assert race_free(graph) == (not graph.all_racing_pairs())
    edges = graph.edges
    for victim in edges[:: max(1, len(edges) // 3)]:
        graph.remove_edge(victim.source, victim.target)
        assert graph.racing_pair_count() == len(graph.all_racing_pairs())


#: Vertex types a typed DAG draws from: both authorization classes, the
#: three protected classes and one the analysis ignores.
_TYPES = (
    OperationType.AUTHORIZATION,
    OperationType.RESOLUTION,
    OperationType.SECRET_ACCESS,
    OperationType.USE,
    OperationType.SEND,
    OperationType.OTHER,
)

_POINT_TYPES = {
    ProtectionPoint.ACCESS: OperationType.SECRET_ACCESS,
    ProtectionPoint.USE: OperationType.USE,
    ProtectionPoint.SEND: OperationType.SEND,
}


def typed_copy(graph: TopologicalSortGraph, seed: int) -> TopologicalSortGraph:
    """``graph`` with every vertex given a seeded random operation type."""
    rng = random.Random(seed)
    typed = TopologicalSortGraph(name=graph.name)
    for name in graph.vertices:
        typed.add_operation(Operation(name=name, op_type=rng.choice(_TYPES)))
    for dependency in graph.edges:
        typed.add_dependency(dependency)
    return typed


def pairwise_missing_dependencies(graph, points=None):
    """Reference: one Theorem-1 ``has_race`` per (authorization, protected)
    pair, in points -> authorizations -> targets order."""
    authorizations = [
        op.name
        for op in graph.operations
        if op.op_type in (OperationType.AUTHORIZATION, OperationType.RESOLUTION)
    ]
    missing = []
    for point in points if points is not None else list(ProtectionPoint):
        targets = [op.name for op in graph.operations if op.op_type is _POINT_TYPES[point]]
        for auth in authorizations:
            for target in targets:
                if has_race(graph, auth, target):
                    missing.append((auth, target, point))
    return missing


def missing_triples(graph, points=None):
    return [
        (dependency.authorization, dependency.protected, dependency.point)
        for dependency in missing_security_dependencies(graph, points=points)
    ]


_POINT_LISTS = st.one_of(
    st.none(),
    st.lists(st.sampled_from(list(ProtectionPoint)), min_size=1, max_size=3, unique=True),
)


@DAG_SIZES
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_missing_dependencies_match_pairwise_races(dags, data):
    """The racing-mask AND reports exactly the pairwise has_race findings,
    in the same order."""
    graph = typed_copy(data.draw(dags), data.draw(st.integers(0, 2**32 - 1)))
    points = data.draw(_POINT_LISTS)
    assert missing_triples(graph, points) == pairwise_missing_dependencies(graph, points)


@pytest.mark.parametrize("key, graph", sorted(build_all_graphs().items()))
def test_missing_dependencies_match_pairwise_races_on_registry_graphs(key, graph):
    for points in (None, [ProtectionPoint.SEND, ProtectionPoint.ACCESS]):
        assert missing_triples(graph, points) == pairwise_missing_dependencies(
            graph, points
        )
    assert graph.racing_pair_count() == len(graph.all_racing_pairs())


@given(random_dags())
@settings(max_examples=40, deadline=None)
def test_racing_partners_consistent_with_batch(graph):
    pairs = graph.all_racing_pairs()
    by_vertex = {name: set() for name in graph.vertices}
    for u, v in pairs:
        by_vertex[u].add(v)
        by_vertex[v].add(u)
    for name in graph.vertices:
        assert graph.racing_partners(name) == by_vertex[name]


@given(random_dags(), st.integers(min_value=1, max_value=20))
@settings(max_examples=40, deadline=None)
def test_count_orderings_limit_contract(graph, limit):
    """With a cap, the counter returns min(exact, cap), as the enumerator did."""
    exact = graph.count_orderings(limit=None)
    assert graph.count_orderings(limit=limit) == min(exact, limit)


def test_capped_count_bounds_work_on_wide_antichains():
    """A capped count on a pathological downset lattice stays fast (DP falls
    back to the bounded enumerator instead of exploring 2^40 states)."""
    graph = TopologicalSortGraph(name="star")
    graph.add_vertex("root")
    for i in range(40):
        graph.add_vertex(f"leaf{i}")
        graph.add_edge("root", f"leaf{i}")
    assert graph.count_orderings(limit=100) == 100


def test_find_races_among_unknown_vertex_raises():
    graph = TopologicalSortGraph()
    graph.add_vertex("A")
    graph.add_vertex("B")
    with pytest.raises(KeyError, match="Unknown vertex"):
        find_races(graph, among=["A", "missing"])


def test_copy_has_independent_closure():
    graph = TopologicalSortGraph()
    for name in "ABC":
        graph.add_vertex(name)
    graph.add_edge("A", "B")
    clone = graph.copy()
    clone.add_edge("B", "C")
    assert clone.has_path("A", "C")
    assert not graph.has_path("A", "C")
    assert graph.racing_partners("C") == {"A", "B"}
