"""Trace files: the one codec for the ``.csv`` and ``.mtr`` formats.

:func:`load_trace` reads a whole trace file into a
:class:`~repro.core.columnar.ColumnarTrace`; :func:`save_trace` writes a
:class:`~repro.core.trace.Trace` or a ``ColumnarTrace``. The suffix
names the format:

* ``.csv`` / ``.csv.gz`` — ``timestamp,address,operation,size`` rows,
  human-readable, for interchange;
* ``.mtr`` / ``.mtr.gz`` — ``MTR1``, a little-endian u64 request count,
  then one packed 21-byte ``<QQBI`` record (timestamp, address,
  operation, size) per request. Gzipped, it is the trace side of the
  Fig. 17 size comparison (our substitute for the paper's
  protobuf+gzip).

On load, gzip is sniffed from the magic bytes whatever the suffix, and
the compressed bytes are read in bounded chunks
(:func:`~repro.core.ioutil.read_artifact_bytes`). On save, output is
gzip-compressed iff the path ends in ``.gz``, with ``mtime=0`` and no
file name in the header, so equal traces give equal bytes; the write is
atomic (:mod:`repro.core.atomic`). With numpy the binary records decode
and encode as one structured array, otherwise through :data:`_RECORD`;
both give the same columns and the same bytes.
"""

from __future__ import annotations

import gzip
import struct
from pathlib import Path
from typing import Union

from .atomic import atomic_write_bytes
from .columnar import ColumnarTrace, as_columnar, numpy_or_none
from .errors import CorruptArtifactError
from .ioutil import read_artifact_bytes
from .request import Operation
from .trace import Trace

__all__ = ["UnknownTraceSuffixError", "load_trace", "save_trace"]

#: Trace-file suffixes, each mapped to whether it names the binary format.
_SUFFIXES = {".csv": False, ".csv.gz": False, ".mtr": True, ".mtr.gz": True}

_CSV_HEADER = "timestamp,address,operation,size"
_HEADER = struct.Struct("<4sQ")  # magic, request count
_BINARY_MAGIC = b"MTR1"
_RECORD = struct.Struct("<QQBI")  # timestamp, address, operation, size


class UnknownTraceSuffixError(ValueError):
    """A trace path whose suffix names no trace format; ``path`` names it."""

    def __init__(self, path):
        known = ", ".join(_SUFFIXES)
        super().__init__(f"{path}: unrecognized trace suffix; expected one of: {known}")
        self.path = str(path)


def _is_binary(path: Union[str, Path]) -> bool:
    name = str(path)
    for suffix, binary in _SUFFIXES.items():
        if name.endswith(suffix):
            return binary
    raise UnknownTraceSuffixError(path)


def load_trace(path: Union[str, Path]) -> ColumnarTrace:
    """Read a trace file in the format its suffix names.

    Raises :class:`UnknownTraceSuffixError` for any other suffix and
    :class:`CorruptArtifactError` for a truncated or malformed file.
    """
    binary = _is_binary(path)
    payload = read_artifact_bytes(path, what="gzip stream")
    return _decode_binary(path, payload) if binary else _decode_csv(path, payload)


def save_trace(trace: Union[Trace, ColumnarTrace], path: Union[str, Path]) -> int:
    """Write ``trace`` in the format its suffix names; returns bytes written."""
    binary = _is_binary(path)
    columns = as_columnar(trace)
    payload = _encode_binary(columns) if binary else _encode_csv(columns)
    if str(path).endswith(".gz"):
        payload = gzip.compress(payload, mtime=0)
    return atomic_write_bytes(path, payload)


def _record_dtype(np):
    return np.dtype(
        [("timestamp", "<u8"), ("address", "<u8"), ("operation", "u1"), ("size", "<u4")]
    )


def _decode_binary(path, payload: bytes) -> ColumnarTrace:
    if payload[: len(_BINARY_MAGIC)] != _BINARY_MAGIC:
        raise CorruptArtifactError(path, "not a Mocktails binary trace")
    if len(payload) < _HEADER.size:
        raise CorruptArtifactError(
            path, f"truncated binary trace header: ends at byte offset {len(payload)}"
        )
    _, count = _HEADER.unpack_from(payload)
    end = _HEADER.size + count * _RECORD.size
    if len(payload) < end:
        raise CorruptArtifactError(
            path,
            f"truncated binary trace: {count} records end at byte offset {end}, "
            f"the data at byte offset {len(payload)}",
        )
    np = numpy_or_none()
    try:
        if np is not None:
            records = np.frombuffer(
                payload, dtype=_record_dtype(np), count=count, offset=_HEADER.size
            )
            return ColumnarTrace(
                *(records[field].copy() for field in ("timestamp", "address", "size", "operation"))
            )
        records = _RECORD.iter_unpack(memoryview(payload)[_HEADER.size : end])
        timestamps, addresses, ops, sizes = zip(*records) if count else ((),) * 4
        return ColumnarTrace(timestamps, addresses, sizes, ops)
    except ValueError as error:
        raise CorruptArtifactError(path, f"malformed binary trace ({error})") from error


def _encode_binary(columns: ColumnarTrace) -> bytes:
    header = _HEADER.pack(_BINARY_MAGIC, len(columns))
    np = numpy_or_none()
    if np is not None:
        records = np.empty(len(columns), dtype=_record_dtype(np))
        records["timestamp"] = columns.timestamps
        records["address"] = columns.addresses
        records["operation"] = columns.ops
        records["size"] = columns.sizes
        return header + records.tobytes()
    rows = zip(
        columns.timestamps.tolist(),
        columns.addresses.tolist(),
        columns.ops.tolist(),
        columns.sizes.tolist(),
    )
    return header + b"".join(_RECORD.pack(*row) for row in rows)


def _decode_csv(path, payload: bytes) -> ColumnarTrace:
    try:
        lines = payload.decode("ascii").splitlines()
    except UnicodeDecodeError as error:
        raise CorruptArtifactError(path, f"not an ASCII CSV trace ({error})") from error
    if not lines or not lines[0].startswith("timestamp"):
        raise CorruptArtifactError(path, "missing CSV header")
    timestamps, addresses, sizes, ops = [], [], [], []
    for line_no, line in enumerate(lines[1:], start=2):
        line = line.strip()
        if not line:
            continue
        try:
            time_s, addr_s, op_s, size_s = line.split(",")
            timestamps.append(int(time_s))
            addresses.append(int(addr_s, 0))
            ops.append(int(Operation.parse(op_s)))
            sizes.append(int(size_s))
        except ValueError as error:
            raise CorruptArtifactError(
                path, f"malformed CSV record at line {line_no} ({error})"
            ) from error
    try:
        return ColumnarTrace(timestamps, addresses, sizes, ops)
    except ValueError as error:
        raise CorruptArtifactError(path, f"malformed CSV record ({error})") from error


def _encode_csv(columns: ColumnarTrace) -> bytes:
    rows = [_CSV_HEADER]
    rows.extend(
        f"{t},{a:#x},{'W' if o else 'R'},{s}"
        for t, a, o, s in zip(
            columns.timestamps.tolist(),
            columns.addresses.tolist(),
            columns.ops.tolist(),
            columns.sizes.tolist(),
        )
    )
    return ("\n".join(rows) + "\n").encode("ascii")
