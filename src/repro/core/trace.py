"""Trace container.

A :class:`Trace` is an ordered sequence of :class:`MemoryRequest` objects,
sorted by timestamp. Trace files are read and written by
:mod:`repro.core.tracefile`.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Union

from .request import AddressRange, MemoryRequest


class Trace:
    """An ordered sequence of memory requests.

    The constructor does not sort; use :meth:`sorted_by_time` or pass
    requests already ordered by timestamp (ties keep insertion order).
    """

    def __init__(self, requests: Optional[Iterable[MemoryRequest]] = None):
        self._requests: List[MemoryRequest] = list(requests) if requests else []

    # -- container protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self._requests)

    def __iter__(self) -> Iterator[MemoryRequest]:
        return iter(self._requests)

    def __getitem__(self, index: Union[int, slice]):
        if isinstance(index, slice):
            return Trace(self._requests[index])
        return self._requests[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return self._requests == other._requests

    def append(self, request: MemoryRequest) -> None:
        self._requests.append(request)

    def extend(self, requests: Iterable[MemoryRequest]) -> None:
        self._requests.extend(requests)

    @property
    def requests(self) -> Sequence[MemoryRequest]:
        return self._requests

    # -- derived properties --------------------------------------------------

    def is_sorted(self) -> bool:
        reqs = self._requests
        return all(reqs[i].timestamp <= reqs[i + 1].timestamp for i in range(len(reqs) - 1))

    def sorted_by_time(self) -> "Trace":
        """A copy sorted by timestamp (stable, preserving tie order)."""
        return Trace(sorted(self._requests, key=lambda r: r.timestamp))

    @property
    def start_time(self) -> int:
        if not self._requests:
            raise ValueError("empty trace has no start time")
        return min(r.timestamp for r in self._requests)

    @property
    def end_time(self) -> int:
        if not self._requests:
            raise ValueError("empty trace has no end time")
        return max(r.timestamp for r in self._requests)

    @property
    def duration(self) -> int:
        return self.end_time - self.start_time if self._requests else 0

    def address_range(self) -> AddressRange:
        """Smallest range covering every byte touched by the trace."""
        if not self._requests:
            raise ValueError("empty trace has no address range")
        start = min(r.address for r in self._requests)
        end = max(r.end_address for r in self._requests)
        return AddressRange(start, end)

    def read_count(self) -> int:
        return sum(1 for r in self._requests if r.is_read)

    def write_count(self) -> int:
        return len(self._requests) - self.read_count()

    def total_bytes(self) -> int:
        return sum(r.size for r in self._requests)

    def head(self, count: int) -> "Trace":
        """The first ``count`` requests (paper uses e.g. first 100k)."""
        return Trace(self._requests[:count])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Trace({len(self._requests)} requests)"
