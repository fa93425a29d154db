"""A simple crossbar between a traffic source and the memory system.

The paper's validation platform connects the traffic generator to main
memory through a crossbar (Sec. IV-A). This model adds a fixed traversal
latency and serializes requests at one injection per ``min_gap`` cycles,
so closely-spaced bursts experience queueing in the network as well as
at the controller. The crossbar reports the total delay a request
experienced (network serialization + memory backpressure) so coupled
synthesis can apply feedback.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .. import obs
from ..core.request import MemoryRequest, Operation
from ..dram.memory_system import MemorySystem


@dataclass(frozen=True)
class CrossbarConfig:
    latency: int = 8  # cycles to traverse the crossbar
    min_gap: int = 1  # minimum cycles between consecutive injections

    def __post_init__(self) -> None:
        if self.latency < 0:
            raise ValueError("latency must be non-negative")
        if self.min_gap <= 0:
            raise ValueError("min_gap must be positive")


class Crossbar:
    """Forwards requests from one device port into the memory system."""

    __slots__ = ("memory", "config", "_last_forward_time", "total_delay", "_obs")

    def __init__(self, memory: MemorySystem, config: Optional[CrossbarConfig] = None):
        self.memory = memory
        self.config = config if config is not None else CrossbarConfig()
        self._last_forward_time: Optional[int] = None
        self.total_delay = 0
        self._obs = obs.active()

    def send(self, request: MemoryRequest) -> int:
        """Forward a request; returns the delay beyond pure traversal.

        The returned value is the backpressure the device observed:
        serialization stalls at the crossbar plus queue-full stalls at
        the memory controller. Zero means the request was accepted
        ``latency`` cycles after injection, as fast as possible.
        """
        timestamp = request.timestamp
        forward_time = timestamp + self.config.latency
        if self._last_forward_time is not None:
            # The port is in-order: a request cannot be forwarded before
            # the previous one was *accepted* (backpressure propagates).
            forward_time = max(forward_time, self._last_forward_time + self.config.min_gap)
        accept_time = self.memory.engine.submit(
            forward_time,
            request.address,
            request.size,
            request.operation is not Operation.READ,
            timestamp,
        )
        self._last_forward_time = accept_time

        delay = accept_time - (timestamp + self.config.latency)
        self.total_delay += delay
        if self._obs is not None:
            self._observe(delay)
        return delay

    def feed(self, block) -> None:
        """Forward a time-ordered :class:`~repro.core.columnar.ColumnarTrace`
        block: the same result as :meth:`send` per request, in one
        inlined engine loop (:meth:`repro.dram.batched.MemoryEngine.feed`)."""
        self.memory.engine.feed(block, self)

    def _observe(self, delay: int) -> None:
        registry = self._obs
        registry.counter("crossbar.forwarded").inc()
        registry.histogram("crossbar.delay_cycles").observe(delay)
        if delay > 0:
            registry.counter("crossbar.stalls").inc()
            registry.counter("crossbar.stall_cycles").inc(delay)
