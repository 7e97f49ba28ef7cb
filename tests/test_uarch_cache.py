"""Tests for the set-associative cache."""

from __future__ import annotations

import copy
from dataclasses import astuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.uarch import SetAssociativeCache


@pytest.fixture
def cache():
    return SetAssociativeCache(sets=4, ways=2, line_size=64, hit_latency=4, miss_latency=200)


class TestBasicBehaviour:
    def test_first_access_misses_then_hits(self, cache):
        assert not cache.access(0x1000).hit
        assert cache.access(0x1000).hit

    def test_latencies(self, cache):
        assert cache.access(0x1000).latency == 200
        assert cache.access(0x1000).latency == 4

    def test_same_line_different_offsets_hit(self, cache):
        cache.access(0x1000)
        assert cache.access(0x103F).hit
        assert not cache.access(0x1040).hit

    def test_contains_has_no_side_effects(self, cache):
        assert not cache.contains(0x1000)
        assert not cache.access(0x1000).hit

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(sets=0)
        with pytest.raises(ValueError):
            SetAssociativeCache(line_size=48)

    def test_set_index_and_tag(self, cache):
        assert cache.set_index(0x1000) != cache.set_index(0x1040)
        assert cache.tag(0x1000) == cache.tag(0x1000 + 1)

    def test_stats(self, cache):
        cache.access(0x1000)
        cache.access(0x1000)
        cache.flush_address(0x1000)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.flushes == 1
        assert 0 < cache.stats.hit_rate < 1


class TestEviction:
    def test_lru_eviction_within_a_set(self, cache):
        set_stride = cache.sets * cache.line_size
        first, second, third = 0x0, set_stride, 2 * set_stride  # same set, different tags
        cache.access(first)
        cache.access(second)
        cache.access(first)  # refresh first so second is LRU
        cache.access(third)  # evicts second
        assert cache.contains(first)
        assert not cache.contains(second)
        assert cache.contains(third)

    def test_occupancy_bounded_by_ways(self, cache):
        set_stride = cache.sets * cache.line_size
        for way in range(5):
            cache.access(way * set_stride)
        assert len(cache.resident_addresses_in_set(0)) == cache.ways


class TestFlushing:
    def test_flush_address(self, cache):
        cache.access(0x1000)
        cache.flush_address(0x1000)
        assert not cache.contains(0x1000)

    def test_flush_range_covers_all_lines(self, cache):
        for offset in range(0, 256, 64):
            cache.access(0x2000 + offset)
        cache.flush_range(0x2000, 256)
        for offset in range(0, 256, 64):
            assert not cache.contains(0x2000 + offset)

    def test_flush_all(self, cache):
        cache.access(0x1000)
        cache.access(0x2000)
        cache.flush_all()
        assert cache.occupancy() == 0


class TestPartitioning:
    def test_partitions_do_not_share_hits(self, cache):
        cache.access(0x1000, partition=0)
        assert not cache.access(0x1000, partition=1).hit
        assert cache.access(0x1000, partition=0).hit

    def test_partition_fills_do_not_evict_other_partition(self, cache):
        set_stride = cache.sets * cache.line_size
        cache.access(0x0, partition=0)
        # Fill partition 1 well past the way count of the set.
        for way in range(4):
            cache.access(way * set_stride, partition=1)
        assert cache.contains(0x0, partition=0)

    def test_flush_removes_all_partitions(self, cache):
        cache.access(0x1000, partition=0)
        cache.access(0x1000, partition=1)
        cache.flush_address(0x1000)
        assert not cache.contains(0x1000, partition=0)
        assert not cache.contains(0x1000, partition=1)


class TestSpeculativeFills:
    def test_invalidate_speculative_only_removes_marked_lines(self, cache):
        cache.access(0x1000, speculative=False)
        cache.access(0x2000, speculative=True)
        removed = cache.invalidate_speculative()
        assert removed == 1
        assert cache.contains(0x1000)
        assert not cache.contains(0x2000)

    def test_invalidate_with_address_filter(self, cache):
        cache.access(0x2000, speculative=True)
        cache.access(0x3000, speculative=True)
        removed = cache.invalidate_speculative({0x2000})
        assert removed == 1
        assert cache.contains(0x3000)

    def test_commit_clears_speculative_marks(self, cache):
        cache.access(0x2000, speculative=True)
        cache.commit_speculative()
        assert cache.invalidate_speculative() == 0
        assert cache.contains(0x2000)

    def test_no_fill_access_leaves_cache_unchanged(self, cache):
        cache.access(0x1000, fill=False)
        assert not cache.contains(0x1000)


# -- the batched sweeps against their one-address definitions ---------------
#: Small enough that random addresses share sets, tags and lines.
_sweep_addresses = st.integers(min_value=0, max_value=4095)
_fills = st.lists(
    st.tuples(_sweep_addresses, st.integers(min_value=0, max_value=2), st.booleans()),
    max_size=40,
)


def _cache_state(cache):
    return (
        cache._clock,
        astuple(cache.stats),
        [
            [(line.tag, line.partition, line.last_used, line.speculative) for line in lines]
            for lines in cache._lines
        ],
    )


def _reference_flush(cache, address):
    """clflush of one address, spelled out: drop the line from every partition."""
    cache.stats.flushes += 1
    index, tag = cache.set_index(address), cache.tag(address)
    cache._lines[index] = [line for line in cache._lines[index] if line.tag != tag]


def _random_cache(sets, ways, fills):
    cache = SetAssociativeCache(sets=sets, ways=ways, line_size=64)
    for address, partition, speculative in fills:
        cache.access(address, partition=partition, speculative=speculative)
    return cache


class TestBatchedSweeps:
    @given(
        sets=st.sampled_from([1, 2, 4]),
        ways=st.integers(min_value=1, max_value=3),
        fills=_fills,
        probes=st.lists(_sweep_addresses, max_size=40),
        partition=st.integers(min_value=0, max_value=2),
    )
    @settings(max_examples=200, deadline=None)
    def test_probe_latencies_equal_non_allocating_accesses(
        self, sets, ways, fills, probes, partition
    ):
        swept = _random_cache(sets, ways, fills)
        looped = copy.deepcopy(swept)
        latencies = swept.probe_latencies(probes, partition)
        expected = [
            looped.access(address, partition=partition, fill=False).latency
            for address in probes
        ]
        assert latencies == expected
        assert _cache_state(swept) == _cache_state(looped)

    @given(
        sets=st.sampled_from([1, 2, 4]),
        ways=st.integers(min_value=1, max_value=3),
        fills=_fills,
        flushes=st.lists(_sweep_addresses, max_size=40),
    )
    @settings(max_examples=200, deadline=None)
    def test_flush_addresses_equals_flushing_one_by_one(self, sets, ways, fills, flushes):
        swept = _random_cache(sets, ways, fills)
        looped = copy.deepcopy(swept)
        swept.flush_addresses(flushes)
        for address in flushes:
            _reference_flush(looped, address)
        assert _cache_state(swept) == _cache_state(looped)
