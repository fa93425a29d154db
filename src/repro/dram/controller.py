"""One channel's memory controller, as a view over the memory engine.

The FR-FCFS scheduler, its queues and bank state live in
:class:`~repro.dram.batched.MemoryEngine` (see that module for the
controller semantics). :class:`MemoryController` exposes one channel of
an engine — its statistics, queue occupancy and ChargeCache — and lets
callers queue bursts and run the scheduler on that channel directly.
"""

from __future__ import annotations

from typing import Optional

from .address_map import Burst
from .batched import MemoryEngine
from .chargecache import ChargeCache
from .config import MemoryConfig
from .stats import ControllerStats


class MemoryController:
    """Channel ``channel`` of ``engine`` (a private engine if omitted)."""

    __slots__ = ("engine", "channel", "_state")

    def __init__(
        self,
        config: MemoryConfig,
        channel: int,
        engine: Optional[MemoryEngine] = None,
    ) -> None:
        self.engine = engine if engine is not None else MemoryEngine(config)
        self.channel = channel
        self._state = self.engine.channels[channel]

    @property
    def config(self) -> MemoryConfig:
        return self.engine.config

    @property
    def stats(self) -> ControllerStats:
        return self._state.stats

    @property
    def charge_cache(self) -> Optional[ChargeCache]:
        return self._state.charge_cache

    # -- queue interface -------------------------------------------------------

    @property
    def read_queue_length(self) -> int:
        return len(self._state.reads)

    @property
    def write_queue_length(self) -> int:
        return len(self._state.writes)

    @property
    def pending(self) -> int:
        return self._state.pending

    def queue_full(self, is_read: bool) -> bool:
        if is_read:
            return len(self._state.reads) >= self.config.read_queue_size
        return len(self._state.writes) >= self.config.write_queue_size

    def enqueue(self, burst: Burst) -> None:
        """Add an arriving burst, recording the queue length it observes.

        Bursts must arrive in nondecreasing time order per queue, and the
        queue must have room (call :meth:`service` first).
        """
        if self.queue_full(burst.is_read):
            raise RuntimeError("enqueue on a full queue; call service first")
        queue = self._state.reads if burst.is_read else self._state.writes
        if queue:
            latest = next(reversed(queue.values()))[0]
            if burst.arrival_time < latest:
                raise ValueError(
                    f"bursts must be enqueued in arrival order "
                    f"({burst.arrival_time} < {latest})"
                )
        # A burst queued directly completes as part of its request id,
        # whose latency runs from the first such burst's arrival.
        entry = self.engine.outstanding.setdefault(
            burst.request_id, [0, burst.arrival_time, 0]
        )
        entry[0] += 1
        self.engine.enqueue(
            self.channel,
            not burst.is_read,
            burst.bank_id,
            burst.coordinates.row,
            burst.arrival_time,
            burst.request_id,
        )

    # -- driving ---------------------------------------------------------------

    def service(self, limit: Optional[int] = None) -> int:
        """Run the scheduler: see :meth:`MemoryEngine.service`.

        ``limit=None`` issues exactly one burst and returns the time its
        data transfer finishes.
        """
        if limit is None and not self.pending:
            raise RuntimeError("service(None) needs a queued burst")
        return self.engine.service(self.channel, limit)

    def drain(self) -> None:
        """Service everything that is still queued."""
        self.engine.drain((self.channel,))
