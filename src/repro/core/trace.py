"""Trace container and on-disk formats.

A :class:`Trace` is an ordered sequence of :class:`MemoryRequest` objects,
sorted by timestamp. Two on-disk formats are provided:

* a human-readable CSV (``.csv``, or gzip-compressed ``.csv.gz``) for
  interchange, and
* a compact struct-packed binary (``.mtr`` / ``.mtr.gz``) used for the
  Fig. 17 trace-size comparison (our substitute for the paper's
  protobuf+gzip).

Compression is keyed on the ``.gz`` suffix at save time and sniffed
from the gzip magic bytes at load time. Compressed output is
byte-deterministic: the gzip header is written with ``mtime=0`` and no
filename, so saving the same trace twice produces identical bytes.
"""

from __future__ import annotations

import gzip
import struct
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence, Union

from .atomic import atomic_write_bytes
from .errors import CorruptArtifactError
from .ioutil import read_artifact_bytes
from .request import AddressRange, MemoryRequest, Operation

_BINARY_MAGIC = b"MTR1"
_GZIP_MAGIC = b"\x1f\x8b"
_RECORD = struct.Struct("<QQBI")  # timestamp, address, operation, size


def _write_payload(path: Union[str, Path], payload: bytes) -> int:
    """Write ``payload``, gzip-compressed iff the path ends in ``.gz``.

    Compression uses ``mtime=0`` (and no embedded filename), so the
    output bytes depend only on the payload — identical traces always
    serialize identically. The write is atomic (temp file +
    ``os.replace``), so an interrupted save never leaves a truncated
    trace at ``path``.
    """
    if str(path).endswith(".gz"):
        payload = gzip.compress(payload, mtime=0)
    return atomic_write_bytes(path, payload)


def _read_payload(path: Union[str, Path]) -> bytes:
    """Read a file, transparently decompressing if it is gzipped.

    Decompression is incremental (bounded chunks, never the whole
    compressed file at once). Raises :class:`CorruptArtifactError` with
    the byte offset on a truncated or corrupt gzip stream.
    """
    return read_artifact_bytes(path, what="gzip stream")


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

    # -- on-disk formats ------------------------------------------------------

    def save_csv(self, path: Union[str, Path]) -> int:
        """Write ``timestamp,address,operation,size`` CSV; returns bytes.

        Output is gzip-compressed iff the path ends in ``.gz``.
        """
        lines = ["timestamp,address,operation,size"]
        lines.extend(
            f"{r.timestamp},{r.address:#x},{r.operation},{r.size}" for r in self._requests
        )
        payload = ("\n".join(lines) + "\n").encode("ascii")
        return _write_payload(path, payload)

    @classmethod
    def load_csv(cls, path: Union[str, Path]) -> "Trace":
        requests = []
        try:
            text = _read_payload(path).decode("ascii")
        except UnicodeDecodeError as error:
            raise CorruptArtifactError(path, f"not an ASCII CSV trace ({error})") from error
        lines = iter(text.splitlines())
        header = next(lines, "")
        if not header.startswith("timestamp"):
            raise CorruptArtifactError(path, "missing CSV header")
        try:
            for line in lines:
                line = line.strip()
                if not line:
                    continue
                time_s, addr_s, op_s, size_s = line.split(",")
                requests.append(
                    MemoryRequest(
                        timestamp=int(time_s),
                        address=int(addr_s, 0),
                        operation=Operation.parse(op_s),
                        size=int(size_s),
                    )
                )
        except CorruptArtifactError:
            raise
        except ValueError as error:
            raise CorruptArtifactError(path, f"malformed CSV record ({error})") from error
        return cls(requests)

    def save_binary(self, path: Union[str, Path]) -> int:
        """Write the compact binary format; returns bytes written.

        Output is gzip-compressed iff the path ends in ``.gz``.
        """
        payload = bytearray(_BINARY_MAGIC)
        payload += struct.pack("<Q", len(self._requests))
        for r in self._requests:
            payload += _RECORD.pack(r.timestamp, r.address, int(r.operation), r.size)
        return _write_payload(path, bytes(payload))

    @classmethod
    def load_binary(cls, path: Union[str, Path]) -> "Trace":
        payload = _read_payload(path)
        if payload[:4] != _BINARY_MAGIC:
            raise CorruptArtifactError(path, "not a Mocktails binary trace")
        try:
            (count,) = struct.unpack_from("<Q", payload, 4)
            requests = []
            offset = 12
            for _ in range(count):
                timestamp, address, op, size = _RECORD.unpack_from(payload, offset)
                offset += _RECORD.size
                requests.append(MemoryRequest(timestamp, address, Operation(op), size))
        except (struct.error, ValueError) as error:
            raise CorruptArtifactError(
                path, f"truncated or malformed binary trace ({error})"
            ) from error
        return cls(requests)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Trace({len(self._requests)} requests)"
