"""Chunked trace reading: fixed-size column blocks straight from disk.

:func:`iter_blocks` yields consecutive :class:`ColumnarTrace` blocks
from a ``.mtr``/``.csv`` file (plain or gzipped) without materializing
the full trace — peak memory is O(block), so traces far larger than RAM
stream through the profiler and the replay engines. Concatenating the
blocks reproduces ``Trace.load_binary``/``load_csv`` exactly, including
every validation error: same suffix dispatch as :mod:`repro.tools.trace`
``load_any``, gzip sniffed from magic bytes, and the same
:class:`CorruptArtifactError` messages — plus the byte offset of the
first missing or corrupt byte, which the whole-file loaders could not
name.
"""

from __future__ import annotations

import gzip
import io
import struct
import zlib
from pathlib import Path
from typing import Iterator, Union

from ..core.columnar import ColumnarTrace, numpy_or_none
from ..core.errors import CorruptArtifactError
from ..core.ioutil import GZIP_MAGIC
from ..core.request import Operation
from ..core.trace import _BINARY_MAGIC, _RECORD

__all__ = ["DEFAULT_BLOCK_REQUESTS", "iter_blocks"]

DEFAULT_BLOCK_REQUESTS = 8192

CSV_SUFFIXES = (".csv", ".csv.gz")
BINARY_SUFFIXES = (".mtr", ".mtr.gz")


def iter_blocks(
    path: Union[str, Path], block_requests: int = DEFAULT_BLOCK_REQUESTS
) -> Iterator[ColumnarTrace]:
    """Iterate a trace file as column blocks of ``block_requests``.

    The format is picked from the suffix (``.csv``/``.csv.gz``/
    ``.mtr``/``.mtr.gz``); gzip compression is sniffed from the file's
    magic bytes regardless of suffix, like the whole-file loaders.
    """
    if block_requests <= 0:
        raise ValueError(f"block_requests must be positive, got {block_requests}")
    name = str(path)
    if name.endswith(CSV_SUFFIXES):
        binary = False
    elif name.endswith(BINARY_SUFFIXES):
        binary = True
    else:
        raise ValueError(
            f"{path}: unknown trace suffix; expected one of "
            f"{CSV_SUFFIXES + BINARY_SUFFIXES}"
        )
    return _iter_file(path, binary, block_requests)


def _iter_file(path, binary: bool, block_requests: int) -> Iterator[ColumnarTrace]:
    with open(path, "rb") as raw:
        head = raw.read(len(GZIP_MAGIC))
        raw.seek(0)
        if head == GZIP_MAGIC:
            stream = gzip.GzipFile(fileobj=raw, mode="rb")
        else:
            stream = raw
        try:
            if binary:
                yield from _iter_binary(path, raw, stream, block_requests)
            else:
                yield from _iter_csv(path, raw, stream, block_requests)
        finally:
            if stream is not raw:
                stream.close()


def _gzip_error(path, raw, error) -> CorruptArtifactError:
    return CorruptArtifactError(
        path,
        "truncated or corrupt gzip stream at compressed byte offset "
        f"{raw.tell()} ({error})",
    )


def _read_exact(path, raw, stream, need: int, offset: int, what: str) -> bytes:
    """Read exactly ``need`` payload bytes starting at payload ``offset``."""
    try:
        data = stream.read(need)
    except (EOFError, OSError, zlib.error) as error:
        raise _gzip_error(path, raw, error) from error
    if len(data) != need:
        raise CorruptArtifactError(
            path,
            f"truncated {what}: wanted {need} bytes at byte offset {offset}, "
            f"got {len(data)}",
        )
    return data


# -- binary (.mtr) -------------------------------------------------------------


def _iter_binary(path, raw, stream, block_requests: int) -> Iterator[ColumnarTrace]:
    header = _read_exact(path, raw, stream, 12, 0, "binary trace header")
    if header[:4] != _BINARY_MAGIC:
        raise CorruptArtifactError(path, "not a Mocktails binary trace")
    (count,) = struct.unpack_from("<Q", header, 4)
    np = numpy_or_none()
    offset = 12
    remaining = count
    while remaining:
        take = min(block_requests, remaining)
        payload = _read_exact(
            path, raw, stream, take * _RECORD.size, offset, "binary trace block"
        )
        offset += len(payload)
        remaining -= take
        yield _decode_records(path, np, payload, take)


def _record_dtype(np):
    return np.dtype(
        [
            ("timestamp", "<u8"),
            ("address", "<u8"),
            ("operation", "u1"),
            ("size", "<u4"),
        ]
    )


def _decode_records(path, np, payload: bytes, count: int) -> ColumnarTrace:
    try:
        if np is not None:
            records = np.frombuffer(payload, dtype=_record_dtype(np), count=count)
            return ColumnarTrace(
                records["timestamp"].astype(np.uint64),
                records["address"].astype(np.uint64),
                records["size"].astype(np.uint32),
                records["operation"].astype(np.uint8),
            )
        timestamps, addresses, sizes, ops = [], [], [], []
        for timestamp, address, op, size in _RECORD.iter_unpack(payload):
            timestamps.append(timestamp)
            addresses.append(address)
            ops.append(op)
            sizes.append(size)
        return ColumnarTrace(timestamps, addresses, sizes, ops)
    except ValueError as error:
        raise CorruptArtifactError(
            path, f"truncated or malformed binary trace ({error})"
        ) from error


# -- CSV -----------------------------------------------------------------------


def _iter_csv(path, raw, stream, block_requests: int) -> Iterator[ColumnarTrace]:
    text = io.TextIOWrapper(stream, encoding="ascii", errors="strict", newline="")
    line_no = 0

    def read_line() -> str:
        try:
            return text.readline()
        except UnicodeDecodeError as error:
            raise CorruptArtifactError(
                path, f"not an ASCII CSV trace ({error})"
            ) from error
        except (EOFError, OSError, zlib.error) as error:
            raise _gzip_error(path, raw, error) from error

    header = read_line()
    if not header.startswith("timestamp"):
        raise CorruptArtifactError(path, "missing CSV header")
    line_no = 1
    timestamps, addresses, sizes, ops = [], [], [], []
    while True:
        line = read_line()
        if not line:
            break
        line_no += 1
        stripped = line.strip()
        if not stripped:
            continue
        try:
            time_s, addr_s, op_s, size_s = stripped.split(",")
            timestamps.append(int(time_s))
            addresses.append(int(addr_s, 0))
            ops.append(int(Operation.parse(op_s)))
            sizes.append(int(size_s))
        except ValueError as error:
            raise CorruptArtifactError(
                path, f"malformed CSV record at line {line_no} ({error})"
            ) from error
        if len(timestamps) == block_requests:
            yield _csv_block(path, timestamps, addresses, sizes, ops)
            timestamps, addresses, sizes, ops = [], [], [], []
    if timestamps:
        yield _csv_block(path, timestamps, addresses, sizes, ops)


def _csv_block(path, timestamps, addresses, sizes, ops) -> ColumnarTrace:
    try:
        return ColumnarTrace(timestamps, addresses, sizes, ops)
    except ValueError as error:
        raise CorruptArtifactError(
            path, f"malformed CSV record ({error})"
        ) from error
