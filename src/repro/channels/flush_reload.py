"""The Flush+Reload channel (hit and access based).

The receiver flushes every entry of a shared probe array, waits for the
sender, then reloads each entry and measures its latency.  A fast (hit)
reload identifies the entry the sender touched, which encodes the secret.
This is the default covert channel of the paper's speculative attacks.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Set

from .base import ChannelObservation, CovertChannel, TimingSurface


class FlushReloadChannel(CovertChannel):
    """Flush+Reload over a shared probe array of ``entries`` page-strided lines."""

    def __init__(
        self,
        surface: TimingSurface,
        probe_base: int,
        *,
        entries: int = 256,
        stride: int = 4096,
        hit_threshold: int = 80,
    ) -> None:
        super().__init__(surface, hit_threshold)
        if entries <= 0 or stride <= 0:
            raise ValueError("entries and stride must be positive")
        self.probe_base = probe_base
        self.entries = entries
        self.stride = stride
        #: Probe-array address of every value, in value order.
        self.addresses = tuple(probe_base + value * stride for value in range(entries))

    def entry_address(self, value: int) -> int:
        """The probe-array address encoding ``value``."""
        if not 0 <= value < self.entries:
            raise ValueError(f"value {value} out of range [0, {self.entries})")
        return self.probe_base + value * self.stride

    def prepare(self) -> None:
        """Flush every probe entry (the channel's initial 'absent' state)."""
        self.surface.flush_addresses(self.addresses)

    def send(self, value: int) -> None:
        """Sender touches the entry indexed by the secret value."""
        self.surface.touch(self.entry_address(value))

    def measure(self) -> List[int]:
        """Reload every entry and return the measured latencies."""
        return self.surface.probe_addresses(self.addresses)

    def receive(self, exclude: Iterable[int] = ()) -> ChannelObservation:
        """Reload the array; the fastest entry below the threshold is the value.

        ``exclude`` lists values the receiver knows were touched
        architecturally (e.g. the committed result of the victim's code) and
        therefore carry no information about the secret.
        """
        latencies = self.measure()
        excluded: Set[int] = set(exclude)
        candidates = [value for value in range(self.entries) if value not in excluded]
        if not candidates:
            return ChannelObservation(value=None, latencies=latencies)
        best_value = min(candidates, key=lambda value: latencies[value])
        if latencies[best_value] >= self.hit_threshold:
            return ChannelObservation(value=None, latencies=latencies)
        return ChannelObservation(value=best_value, latencies=latencies)
