"""Chunked trace writing: column blocks to disk through ``core.atomic``.

:class:`TraceBlockWriter` accepts :class:`ColumnarTrace` blocks and
produces files byte-identical to ``Trace.save_binary``/``save_csv`` —
same formats, same deterministic gzip container (``mtime=0``; the
incremental compressor is the exact codec ``gzip.compress(mtime=0)``
uses) — without ever holding the whole trace or payload in memory. All
bytes go through :class:`~repro.core.atomic.AtomicFileWriter`, so a
crash mid-write never leaves a truncated trace at the destination.

The binary header stores the request count up front. When
``expected_requests`` is known the header is written first and verified
at close; otherwise a plain ``.mtr`` back-patches the header before the
atomic rename, and a ``.mtr.gz`` spools raw records to a temp file and
recompresses them behind the finalized header at close (a gzip stream
cannot be patched in place).
"""

from __future__ import annotations

import struct
import tempfile
import zlib
from pathlib import Path
from typing import Optional, Union

from ..core.columnar import ColumnarTrace, numpy_or_none
from ..core.trace import _BINARY_MAGIC, _RECORD
from ..core.atomic import AtomicFileWriter
from .reader import BINARY_SUFFIXES, CSV_SUFFIXES, _record_dtype

__all__ = ["TraceBlockWriter"]

_CSV_HEADER = b"timestamp,address,operation,size\n"
_COPY_BYTES = 1 << 20


class _GzipSink:
    """Incremental gzip writer, byte-identical to ``gzip.compress(mtime=0)``.

    ``gzip.compress`` with ``mtime=0`` delegates to zlib's gzip
    container (``wbits=31``); feeding the same bytes through one
    ``compressobj`` produces the same output, chunk sizes included.
    """

    def __init__(self, handle):
        self._handle = handle
        self._compressor = zlib.compressobj(9, zlib.DEFLATED, 31)

    def write(self, data: bytes) -> None:
        chunk = self._compressor.compress(data)
        if chunk:
            self._handle.write(chunk)

    def finish(self) -> None:
        self._handle.write(self._compressor.flush())


class TraceBlockWriter:
    """Write a trace block by block, atomically, in any on-disk format.

    Feed blocks with :meth:`write_block`; the output appears at ``path``
    only on :meth:`close` (or a clean context-manager exit). On error —
    including an ``expected_requests`` mismatch — the destination is
    left untouched.
    """

    def __init__(self, path: Union[str, Path], expected_requests: Optional[int] = None):
        name = str(path)
        if name.endswith(CSV_SUFFIXES):
            self._binary = False
        elif name.endswith(BINARY_SUFFIXES):
            self._binary = True
        else:
            raise ValueError(
                f"{path}: unknown trace suffix; expected one of "
                f"{CSV_SUFFIXES + BINARY_SUFFIXES}"
            )
        if expected_requests is not None and expected_requests < 0:
            raise ValueError(
                f"expected_requests must be non-negative, got {expected_requests}"
            )
        self.path = Path(path)
        self.expected_requests = expected_requests
        self.requests_written = 0
        self.bytes_written = 0
        self._gzipped = name.endswith(".gz")
        self._closed = False
        self._spool = None
        self._atomic = AtomicFileWriter(path)
        try:
            self._sink = _GzipSink(self._atomic) if self._gzipped else self._atomic
            if self._binary:
                if self._gzipped and expected_requests is None:
                    # Count unknown and the header is inside the gzip
                    # stream: spool raw records, compress at close.
                    self._spool = tempfile.TemporaryFile()
                else:
                    self._sink.write(_BINARY_MAGIC)
                    self._sink.write(struct.pack("<Q", expected_requests or 0))
            else:
                self._sink.write(_CSV_HEADER)
        except BaseException:
            self._atomic.abort()
            raise

    # -- writing ---------------------------------------------------------------

    def write_block(self, block: ColumnarTrace) -> None:
        if self._closed:
            raise RuntimeError(f"{self.path}: writer is closed")
        if not len(block):
            return
        if self._binary:
            payload = _pack_records(block)
            if self._spool is not None:
                self._spool.write(payload)
            else:
                self._sink.write(payload)
        else:
            self._sink.write(_format_csv(block))
        self.requests_written += len(block)

    # -- finalization ----------------------------------------------------------

    def close(self) -> int:
        """Finalize and atomically publish; returns the file size."""
        if self._closed:
            return self.bytes_written
        try:
            if (
                self.expected_requests is not None
                and self.requests_written != self.expected_requests
            ):
                raise ValueError(
                    f"{self.path}: wrote {self.requests_written} requests, "
                    f"expected {self.expected_requests}"
                )
            if self._binary and self._spool is not None:
                self._sink.write(_BINARY_MAGIC)
                self._sink.write(struct.pack("<Q", self.requests_written))
                self._spool.seek(0)
                while True:
                    chunk = self._spool.read(_COPY_BYTES)
                    if not chunk:
                        break
                    self._sink.write(chunk)
            elif self._binary and self.expected_requests is None:
                # Plain .mtr: back-patch the count before the rename.
                self._atomic.seek(len(_BINARY_MAGIC))
                self._atomic.write(struct.pack("<Q", self.requests_written))
            if self._gzipped:
                self._sink.finish()
            self.bytes_written = self._atomic.commit()
            self._closed = True
            return self.bytes_written
        except BaseException:
            self.abort()
            raise
        finally:
            if self._spool is not None:
                self._spool.close()
                self._spool = None

    def abort(self) -> None:
        """Discard everything; the destination is left untouched."""
        if self._closed:
            return
        self._closed = True
        if self._spool is not None:
            self._spool.close()
            self._spool = None
        self._atomic.abort()

    def __enter__(self) -> "TraceBlockWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abort()


def _pack_records(block: ColumnarTrace) -> bytes:
    np = numpy_or_none()
    if np is not None and isinstance(block.timestamps, np.ndarray):
        records = np.empty(len(block), dtype=_record_dtype(np))
        records["timestamp"] = block.timestamps
        records["address"] = block.addresses
        records["operation"] = block.ops
        records["size"] = block.sizes
        return records.tobytes()
    pack = _RECORD.pack
    return b"".join(
        pack(t, a, o, s)
        for t, a, o, s in zip(
            block.timestamps.tolist(),
            block.addresses.tolist(),
            block.ops.tolist(),
            block.sizes.tolist(),
        )
    )


def _format_csv(block: ColumnarTrace) -> bytes:
    lines = [
        f"{t},{a:#x},{'W' if o else 'R'},{s}\n"
        for t, a, o, s in zip(
            block.timestamps.tolist(),
            block.addresses.tolist(),
            block.ops.tolist(),
            block.sizes.tolist(),
        )
    ]
    return "".join(lines).encode("ascii")
