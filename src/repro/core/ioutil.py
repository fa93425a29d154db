"""Incremental artifact reads.

:func:`read_artifact_bytes` reads a trace or profile file in bounded
chunks, decompressing gzip streams incrementally, so the compressed
payload is never resident whole. A truncated or corrupt stream raises
:class:`~repro.core.errors.CorruptArtifactError` naming the file and the
byte offset of the first bad compressed byte.

Used by :mod:`repro.core.tracefile` and :mod:`repro.core.serialization`.
The write side is :mod:`repro.core.atomic`.
"""

from __future__ import annotations

import zlib
from pathlib import Path
from typing import Union

from .errors import CorruptArtifactError

GZIP_MAGIC = b"\x1f\x8b"

#: Bytes per read: large enough to keep syscall overhead negligible,
#: small enough that the compressed payload is never whole in memory.
CHUNK_BYTES = 1 << 20


def read_artifact_bytes(
    path: Union[str, Path],
    require_gzip: bool = False,
    what: str = "gzip stream",
) -> bytes:
    """Read an artifact, decompressing incrementally when gzipped.

    The file is consumed in :data:`CHUNK_BYTES` slices; gzip payloads
    (detected by magic bytes, like the one-shot loaders did) stream
    through ``zlib.decompressobj`` so the compressed bytes are never
    resident all at once. Multi-member gzip files are handled the same
    way ``gzip.decompress`` handles them: members are decompressed back
    to back.

    Raises :class:`CorruptArtifactError` naming ``path`` and the byte
    offset of the first bad compressed byte on truncated or corrupt
    streams; ``what`` labels the artifact kind in that message. With
    ``require_gzip`` a plain (uncompressed) file is rejected outright —
    profile files are always gzip containers.
    """
    with open(path, "rb") as handle:
        head = handle.read(len(GZIP_MAGIC))
        if head != GZIP_MAGIC:
            if require_gzip:
                raise CorruptArtifactError(
                    path, f"not a {what} (missing gzip magic), or truncated"
                )
            pieces = [head]
            while True:
                chunk = handle.read(CHUNK_BYTES)
                if not chunk:
                    return b"".join(pieces)
                pieces.append(chunk)

        # Incremental gzip decompression. wbits=31 selects the gzip
        # container (header + trailer checksum), matching gzip.decompress.
        payload = bytearray()
        decompressor = zlib.decompressobj(wbits=31)
        consumed = 0  # compressed bytes fully handed to a decompressor
        pending = head
        eof = False
        while True:
            chunk = handle.read(CHUNK_BYTES)
            data = pending + chunk
            pending = b""
            if not data:
                break
            while data:
                try:
                    payload += decompressor.decompress(data)
                except zlib.error as error:
                    raise CorruptArtifactError(
                        path,
                        f"corrupt {what} at byte offset {consumed} ({error})",
                    ) from error
                consumed += len(data) - len(decompressor.unused_data)
                data = decompressor.unused_data
                if decompressor.eof and data:
                    # Another gzip member follows (concatenated streams).
                    decompressor = zlib.decompressobj(wbits=31)
                elif decompressor.eof:
                    eof = True
                    break
                else:
                    break
            if not chunk:
                break
        if not eof and not decompressor.eof:
            raise CorruptArtifactError(
                path,
                f"truncated {what}: ended mid-stream at byte offset {consumed}",
            )
        return bytes(payload)
