"""Shared helpers for the streaming tests.

``synthetic_trace`` also feeds the columnar-profile tests in
``tests/core/test_columnar_profile.py``.
"""

from __future__ import annotations

import random

import pytest

from repro.core.columnar import ColumnarTrace
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


@pytest.fixture
def stream_trace() -> Trace:
    return synthetic_trace(1200, seed=7)


@pytest.fixture
def stream_columns(stream_trace) -> ColumnarTrace:
    return ColumnarTrace.from_trace(stream_trace)
