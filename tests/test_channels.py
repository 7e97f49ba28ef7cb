"""Tests for the cache covert channels (Section II-C)."""

from __future__ import annotations

import pytest

from repro.channels import (
    CHANNEL_TAXONOMY,
    CacheCollisionChannel,
    CacheTimingSurface,
    EvictTimeChannel,
    FlushReloadChannel,
    Granularity,
    PrimeProbeChannel,
    Signal,
    classify,
    taxonomy_rows,
)
from repro.uarch import SetAssociativeCache

PROBE_BASE = 0x100_0000


@pytest.fixture
def cache():
    return SetAssociativeCache(sets=64, ways=8, line_size=64, hit_latency=4, miss_latency=200)


@pytest.fixture
def surface(cache):
    return CacheTimingSurface(cache)


class TestFlushReload:
    def test_roundtrip_recovers_the_sent_value(self, surface):
        channel = FlushReloadChannel(surface, PROBE_BASE, entries=32)
        for value in (0, 7, 31):
            observation = channel.transmit(value)
            assert observation.detected and observation.value == value

    def test_no_send_means_no_signal(self, surface):
        channel = FlushReloadChannel(surface, PROBE_BASE, entries=16)
        channel.prepare()
        observation = channel.receive()
        assert observation.value is None
        assert all(latency >= channel.hit_threshold for latency in observation.latencies)

    def test_exclude_filters_known_architectural_accesses(self, surface):
        channel = FlushReloadChannel(surface, PROBE_BASE, entries=16)
        channel.prepare()
        channel.send(0)
        channel.send(9)
        observation = channel.receive(exclude={0})
        assert observation.value == 9

    def test_exclude_everything_returns_no_signal(self, surface):
        channel = FlushReloadChannel(surface, PROBE_BASE, entries=4)
        channel.prepare()
        channel.send(1)
        assert channel.receive(exclude=set(range(4))).value is None

    def test_partitioned_surface_defeats_the_channel(self, cache):
        isolated = CacheTimingSurface(cache, sender_partition=0, receiver_partition=1)
        channel = FlushReloadChannel(isolated, PROBE_BASE, entries=16)
        observation = channel.transmit(5)
        assert observation.value is None

    def test_value_out_of_range_rejected(self, surface):
        channel = FlushReloadChannel(surface, PROBE_BASE, entries=8)
        with pytest.raises(ValueError):
            channel.entry_address(8)

    def test_bad_geometry_rejected(self, surface):
        with pytest.raises(ValueError):
            FlushReloadChannel(surface, PROBE_BASE, entries=0)

    def test_measure_length(self, surface):
        channel = FlushReloadChannel(surface, PROBE_BASE, entries=10)
        channel.prepare()
        assert len(channel.measure()) == 10

    def test_flush_and_reload_are_one_surface_call_each(self, surface):
        calls = []

        class Counting:
            def __getattr__(self, name):
                calls.append(name)
                return getattr(surface, name)

        channel = FlushReloadChannel(Counting(), PROBE_BASE, entries=16)
        channel.prepare()
        assert calls == ["flush_addresses"]
        calls.clear()
        channel.send(3)
        calls.clear()
        assert channel.receive().value == 3
        assert calls == ["probe_addresses"]


class TestPrimeProbe:
    def test_roundtrip_recovers_the_set_index(self, cache):
        channel = PrimeProbeChannel(cache)
        for value in (3, 17, 63):
            observation = channel.transmit(value)
            assert observation.value == value

    def test_no_send_means_no_signal(self, cache):
        channel = PrimeProbeChannel(cache)
        channel.prepare()
        assert channel.receive().value is None

    def test_value_wraps_to_set_count(self, cache):
        channel = PrimeProbeChannel(cache)
        observation = channel.transmit(64 + 5)
        assert observation.value == 5

    def test_partitioned_cache_defeats_prime_probe(self, cache):
        channel = PrimeProbeChannel(cache, sender_partition=0, receiver_partition=1)
        observation = channel.transmit(12)
        assert observation.value is None


class TestEvictTime:
    def _victim(self, cache, addresses):
        def operation() -> int:
            return sum(cache.access(address, partition=0).latency for address in addresses)

        return operation

    def test_detects_the_set_the_victim_uses(self, cache):
        victim_address = 0x5000
        channel = EvictTimeChannel(cache, self._victim(cache, [victim_address]))
        measurement = channel.measure_set(cache.set_index(victim_address))
        assert measurement.victim_uses_set

    def test_unused_set_shows_no_slowdown(self, cache):
        victim_address = 0x5000
        channel = EvictTimeChannel(cache, self._victim(cache, [victim_address]))
        other_set = (cache.set_index(victim_address) + 1) % cache.sets
        assert not channel.measure_set(other_set).victim_uses_set

    def test_receive_finds_the_hottest_set(self, cache):
        victim_address = 0x5000
        channel = EvictTimeChannel(cache, self._victim(cache, [victim_address]))
        observation = channel.receive()
        assert observation.value == cache.set_index(victim_address)


class TestCacheCollision:
    def test_recovers_the_victim_secret(self, cache):
        secret = 13
        table_base = 0x9000

        def victim_operation() -> int:
            return cache.access(table_base + secret * 64, partition=0).latency

        channel = CacheCollisionChannel(
            cache, victim_operation, table_base=table_base, entries=32, stride=64
        )
        observation = channel.receive()
        assert observation.value == secret


class TestTaxonomy:
    def test_four_classes_cover_the_two_by_two_grid(self):
        assert len(CHANNEL_TAXONOMY) == 4
        cells = {(c.signal, c.granularity) for c in CHANNEL_TAXONOMY}
        assert len(cells) == 4

    def test_classify_lookup(self):
        assert classify(Signal.HIT, Granularity.ACCESS).name == "Flush+Reload"
        assert classify(Signal.MISS, Granularity.ACCESS).name == "Prime+Probe"
        assert classify(Signal.MISS, Granularity.OPERATION).name == "Evict+Time"
        assert classify(Signal.HIT, Granularity.OPERATION).name == "Cache collision"

    def test_only_flush_reload_needs_shared_memory(self):
        sharing = {c.name: c.needs_shared_memory for c in CHANNEL_TAXONOMY}
        assert sharing["Flush+Reload"] is True
        assert sharing["Prime+Probe"] is False

    def test_taxonomy_rows(self):
        rows = taxonomy_rows()
        assert len(rows) == 4
        assert ("Flush+Reload", "hit", "access", "yes") in rows
