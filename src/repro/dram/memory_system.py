"""Multi-channel memory system front end.

Accepts whole memory requests, splits them into bursts, routes each
burst to its channel's controller and tracks per-request completion so
the average memory access latency (paper Fig. 13) can be reported.
Backpressure — a full read or write queue — delays acceptance; the
accumulated delay is reported back to the caller so coupled synthesis
(paper Sec. III-C, "Simulator Feedback") can shift its timestamps.

All state lives in one :class:`~repro.dram.batched.MemoryEngine`;
:class:`MemorySystem` is the request-level view of it.
"""

from __future__ import annotations

from typing import List, Optional

from ..core.request import MemoryRequest, Operation
from .batched import CompletionHook, MemoryEngine
from .config import MemoryConfig
from .controller import MemoryController
from .stats import ControllerStats


class MemorySystem:
    """The paper's Table III memory system: N channels behind one port."""

    def __init__(self, config: Optional[MemoryConfig] = None):
        self.engine = MemoryEngine(config)
        self.config = self.engine.config
        self.address_map = self.engine.address_map
        self.stats = self.engine.stats
        self.controllers: List[MemoryController] = [
            MemoryController(self.config, channel, self.engine)
            for channel in range(self.config.num_channels)
        ]

    @property
    def on_request_complete(self) -> Optional[CompletionHook]:
        """Hook invoked as ``(request_id, latency)`` when a request's
        final burst completes; used for per-device attribution."""
        return self.engine.on_request_complete

    @on_request_complete.setter
    def on_request_complete(self, hook: Optional[CompletionHook]) -> None:
        self.engine.on_request_complete = hook

    @property
    def last_request_id(self) -> Optional[int]:
        """Id of the most recently submitted request (``None`` if none)."""
        return self.engine.last_request_id

    @property
    def last_accept_time(self) -> int:
        """Time the most recent request was accepted (0 if none)."""
        return self.engine.last_submit

    def submit(
        self,
        request: MemoryRequest,
        at_time: Optional[int] = None,
        injected_at: Optional[int] = None,
    ) -> int:
        """Present a request to the memory system.

        Requests must be submitted in non-decreasing time order. Returns
        the acceptance time: ``at_time`` unless backpressure (a full
        queue) forced the request to wait for space. ``injected_at``, when
        given, is the time the *device* issued the request (before any
        interconnect latency) and is used for latency accounting.
        """
        presented = request.timestamp if at_time is None else at_time
        return self.engine.submit(
            presented,
            request.address,
            request.size,
            request.operation is not Operation.READ,
            presented if injected_at is None else injected_at,
        )

    def drain(self) -> None:
        """Service every queued burst (call once after the last submit)."""
        self.engine.drain()

    def channel_stats(self, channel: int) -> ControllerStats:
        return self.controllers[channel].stats
