"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import random
import tempfile

import pytest

# Hermetic cross-run cache: the eval CLI memoizes to ~/.cache/repro by
# default, which tests must never touch. Point it at a throwaway
# directory before anything imports repro.store's default.
os.environ.setdefault(
    "REPRO_CACHE_DIR", tempfile.mkdtemp(prefix="repro-test-cache-")
)

from repro.core.request import MemoryRequest, Operation
from repro.core.trace import Trace


def synthetic_trace(num_requests: int, seed: int = 0) -> Trace:
    """A deterministic trace with ties, bursts, jumps and mixed ops."""
    rng = random.Random(seed)
    requests = []
    clock = 100
    address = 0x1000
    for _ in range(num_requests):
        clock += rng.choice([0, 0, 1, 2, 5, 40, 300, 100_000])
        if rng.random() < 0.08:
            address = rng.randrange(0, 1 << 34, 64)
        else:
            address = (address + rng.choice([64, 64, 128, -64, 4096])) % (1 << 40)
        operation = Operation.WRITE if rng.random() < 0.3 else Operation.READ
        requests.append(
            MemoryRequest(clock, address, operation, rng.choice([4, 8, 64]))
        )
    return Trace(requests)


def req(t: int, addr: int, op: str = "R", size: int = 64) -> MemoryRequest:
    """Terse request constructor used throughout the tests."""
    return MemoryRequest(t, addr, Operation.parse(op), size)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(1234)


@pytest.fixture
def linear_trace() -> Trace:
    """A pure linear read stream: constant stride 64, constant size."""
    return Trace([req(i * 10, 0x1000 + i * 64) for i in range(32)])


@pytest.fixture
def mixed_trace() -> Trace:
    """Two interleaved streams: linear reads and strided writes."""
    requests = []
    clock = 0
    for i in range(24):
        clock += 5
        requests.append(req(clock, 0x1000 + i * 64, "R", 64))
        clock += 5
        requests.append(req(clock, 0x9000 + i * 128, "W", 32))
    return Trace(requests)


@pytest.fixture
def bursty_trace() -> Trace:
    """Bursts of requests separated by long idle gaps."""
    requests = []
    clock = 0
    for burst in range(6):
        for i in range(20):
            clock += 2
            requests.append(req(clock, 0x4000 + burst * 0x2000 + i * 64))
        clock += 1_000_000
    return Trace(requests)
