"""Workload generator infrastructure.

The paper validates Mocktails on proprietary RTL-emulation traces
(Table II). Those traces cannot be redistributed — which is the paper's
whole point — so this package provides parametric generators that
recreate each device's *documented* access structure (see DESIGN.md,
substitutions). Every generator is deterministic given its seed.

Generation is columnar internally: :class:`TraceBuilder` accumulates
four plain columns (timestamps/addresses/ops/sizes) instead of one
request object per emit. :meth:`TraceBuilder.build` still materializes a
:class:`Trace` — the historical contract — while
:meth:`TraceBuilder.build_columnar` hands the columns to a
:class:`~repro.core.columnar.ColumnarTrace` without ever constructing
request objects. :meth:`WorkloadGenerator.generate_columnar` exposes the
same switch at the generator level: identical RNG streams, identical
requests, different container.
"""

from __future__ import annotations

import contextlib
import random
import zlib
from typing import List, Optional, Union

from ..core.columnar import ColumnarTrace
from ..core.request import MemoryRequest, Operation
from ..core.trace import Trace


class TraceBuilder:
    """Accumulates requests while advancing a cycle clock.

    Generators interleave several logical streams; the builder keeps the
    global clock and guarantees the resulting trace is time-sorted.
    Requests are stored as columns; validation happens at emit time with
    the same errors :class:`MemoryRequest` raises, so switching the
    output container cannot change which traces are rejected.
    """

    #: When true, :meth:`build` returns a ColumnarTrace instead of a
    #: Trace. Class-wide so :meth:`WorkloadGenerator.generate_columnar`
    #: can reroute existing generators without touching their code.
    _columnar_build = False

    def __init__(self, start_time: int = 0):
        self.clock = start_time
        self._timestamps: List[int] = []
        self._addresses: List[int] = []
        self._ops: List[int] = []
        self._sizes: List[int] = []

    def __len__(self) -> int:
        return len(self._timestamps)

    def emit(self, address: int, operation: Operation, size: int, gap: int = 1) -> None:
        """Append a request ``gap`` cycles after the previous one."""
        if gap < 0:
            raise ValueError("gap must be non-negative")
        if size <= 0:
            raise ValueError(f"request size must be positive, got {size}")
        if address < 0:
            raise ValueError(f"address must be non-negative, got {address}")
        self.clock += gap
        if self.clock < 0:
            raise ValueError(f"timestamp must be non-negative, got {self.clock}")
        self._timestamps.append(self.clock)
        self._addresses.append(address)
        self._ops.append(int(operation))
        self._sizes.append(size)

    def emit_many(
        self,
        addresses,
        operations,
        sizes,
        gaps=None,
    ) -> None:
        """Append a whole column block of requests in one call.

        ``operations`` may be a single :class:`Operation` applied to the
        block or a per-request sequence; ``gaps`` defaults to 1 cycle
        between consecutive requests. Equivalent to calling :meth:`emit`
        per element — same clock advancement, same validation errors.
        """
        count = len(addresses)
        if isinstance(operations, (Operation, int)):
            operations = [operations] * count
        if gaps is None:
            gaps = [1] * count
        if not (len(operations) == len(sizes) == len(gaps) == count):
            raise ValueError(
                "emit_many columns must have equal lengths, got "
                f"addresses={count} operations={len(operations)} "
                f"sizes={len(sizes)} gaps={len(gaps)}"
            )
        for address, operation, size, gap in zip(addresses, operations, sizes, gaps):
            self.emit(address, operation, size, gap=gap)

    def idle(self, cycles: int) -> None:
        """Advance the clock without emitting (burst separation)."""
        if cycles < 0:
            raise ValueError("cycles must be non-negative")
        self.clock += cycles

    def build_columnar(self) -> ColumnarTrace:
        """The accumulated requests as columns (no request objects)."""
        trace = ColumnarTrace(self._timestamps, self._addresses, self._sizes, self._ops)
        if not trace.is_sorted():  # pragma: no cover - builder invariant
            raise RuntimeError("TraceBuilder produced an unsorted trace")
        return trace

    def build(self) -> Union[Trace, ColumnarTrace]:
        """The accumulated requests, normally as a :class:`Trace`.

        Inside :meth:`WorkloadGenerator.generate_columnar` the result is
        a :class:`ColumnarTrace` instead (same requests, same order).
        """
        if TraceBuilder._columnar_build:
            return self.build_columnar()
        trace = Trace(
            MemoryRequest(timestamp, address, Operation(op), size)
            for timestamp, address, op, size in zip(
                self._timestamps, self._addresses, self._ops, self._sizes
            )
        )
        if not trace.is_sorted():  # pragma: no cover - builder invariant
            raise RuntimeError("TraceBuilder produced an unsorted trace")
        return trace

    @classmethod
    @contextlib.contextmanager
    def columnar_output(cls):
        """Scope within which :meth:`build` returns column traces."""
        previous = cls._columnar_build
        cls._columnar_build = True
        try:
            yield
        finally:
            cls._columnar_build = previous


class WorkloadGenerator:
    """Base class for device workload models.

    Subclasses set ``device`` (CPU/DPU/GPU/VPU) and ``description`` and
    implement :meth:`generate`.
    """

    name: str = "abstract"
    device: str = "abstract"
    description: str = ""

    def __init__(self, seed: int = 0):
        self.seed = seed

    def generate(self, num_requests: int) -> Trace:
        raise NotImplementedError

    def generate_columnar(self, num_requests: int) -> ColumnarTrace:
        """Generate the same trace as :meth:`generate`, as columns.

        The generator's RNG streams are untouched — request content is
        bit-identical to :meth:`generate` — only the container differs,
        skipping per-request object materialization.
        """
        with TraceBuilder.columnar_output():
            result = self.generate(num_requests)
        if isinstance(result, ColumnarTrace):
            return result
        # Generator built its trace without a TraceBuilder; convert.
        return ColumnarTrace.from_trace(result)

    def _rng(self, salt: int = 0) -> random.Random:
        # crc32 rather than hash(): string hashing is randomized per
        # process (PYTHONHASHSEED), and generators must produce identical
        # traces everywhere — including parallel worker processes.
        name_hash = zlib.crc32(self.name.encode("utf-8"))
        return random.Random(name_hash ^ self.seed ^ (salt << 16))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r}, seed={self.seed})"


def align(address: int, granularity: int) -> int:
    return (address // granularity) * granularity
