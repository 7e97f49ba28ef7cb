"""Shared fixtures for the test suite."""

from __future__ import annotations

import signal
import socket

import pytest

from repro.attacks import get as get_attack
from repro.core import figure2_example
from repro.isa import assemble
from repro.uarch import UarchConfig


LISTING1_TEXT = """
.data
probe_array:  address=0x1000000 size=1048576 shared
victim_array: address=0x200000  size=16
victim_size:  address=0x210000  size=8
secret:       address=0x200048  size=1 protected
.text
    clflush [probe_array]
    mov rdx, 0x48
    cmp rdx, [victim_size]
    ja done
    mov rax, byte [victim_array + rdx]
    shl rax, 12
    mov rbx, [probe_array + rax]
done:
    hlt
"""

LISTING2_TEXT = """
.data
probe_array:   address=0x1000000  size=1048576 shared
kernel_secret: address=0xffff0000 size=64 kernel protected
.text
    clflush [probe_array]
    mov rax, byte [kernel_secret]
    shl rax, 12
    mov rbx, [probe_array + rax]
    hlt
"""


#: Wall-clock ceiling for a single ``faults``- or ``service``-marked test.
#: Fault-injection tests exercise hangs, kills, and pool respawns; service
#: tests run socket servers and subprocesses -- a regression in either shows
#: up as a stuck test, so the guard turns it into a loud failure instead.
FAULT_TEST_TIMEOUT_SECONDS = 90.0

#: Markers whose tests run under the SIGALRM wall-clock guard.
GUARDED_MARKERS = ("faults", "service", "obs", "fuzz")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    """Abort any guarded-marker test that overruns its wall-clock budget."""
    marker = next(
        (
            found
            for name in GUARDED_MARKERS
            if (found := item.get_closest_marker(name)) is not None
        ),
        None,
    )
    if marker is None or not hasattr(signal, "SIGALRM"):
        yield
        return
    limit = float(marker.kwargs.get("timeout", FAULT_TEST_TIMEOUT_SECONDS))

    def _expired(signum, frame):
        raise TimeoutError(
            f"{marker.name} test exceeded its {limit:.0f}s wall-clock guard"
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def ephemeral_port():
    """A free TCP port on loopback for service subprocesses.

    In-process servers bind ``port=0`` and read the port back; subprocess
    servers (``repro serve``) need the number up front, so probe one here.
    The tiny close-to-bind race is acceptable for loopback tests.
    """
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


@pytest.fixture
def figure2():
    """The TSG of the paper's Figure 2."""
    return figure2_example()


@pytest.fixture
def spectre_v1_graph():
    """The Figure 1 attack graph of Spectre v1."""
    return get_attack("spectre_v1").build_graph()


@pytest.fixture
def meltdown_graph():
    """The Figure 3 attack graph of Meltdown."""
    return get_attack("meltdown").build_graph()


@pytest.fixture
def listing1_program():
    """The paper's Listing 1 (Spectre v1) as a tiny-ISA program."""
    return assemble(LISTING1_TEXT, name="listing1")


@pytest.fixture
def listing2_program():
    """The paper's Listing 2 (Meltdown) as a tiny-ISA program."""
    return assemble(LISTING2_TEXT, name="listing2")


@pytest.fixture
def base_config():
    """The default (undefended) simulator configuration."""
    return UarchConfig()
