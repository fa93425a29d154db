"""Crash-safe file writes: temp file + ``os.replace``.

Every artifact writer in the repo (profiles, traces, manifests, result
store entries) funnels through this helper, so an interrupted run —
``kill -9`` mid-write, a full disk, a crashing serializer — can never
leave a truncated artifact at the destination path. The destination
either still holds its previous contents or holds the complete new
payload; readers never observe an intermediate state.

The temp file is created *in the destination directory* (not ``/tmp``)
so the final ``os.replace`` is a same-filesystem rename, which POSIX
guarantees to be atomic. A failure to create it (a missing or read-only
directory) is reported against the destination path, not the temp name.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Tuple, Union


def _temp_beside(path: Path) -> Tuple[int, str]:
    """Open a uniquely named temp file next to ``path``."""
    directory = path.parent if str(path.parent) else Path(".")
    try:
        return tempfile.mkstemp(prefix=f".{path.name}.", suffix=".tmp", dir=directory)
    except OSError as error:
        raise type(error)(error.errno, error.strerror, str(path)) from None


def atomic_write_bytes(path: Union[str, Path], data: bytes) -> int:
    """Atomically write ``data`` to ``path``; returns bytes written.

    The payload is written to a uniquely named temp file next to the
    destination, flushed and fsynced, then renamed over the destination
    in one atomic step. On any failure the temp file is removed and the
    destination is left untouched.
    """
    path = Path(path)
    fd, temp_name = _temp_beside(path)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_name, path)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise
    return len(data)


def atomic_write_text(path: Union[str, Path], text: str, encoding: str = "utf-8") -> int:
    """Atomically write ``text`` to ``path``; returns bytes written."""
    return atomic_write_bytes(path, text.encode(encoding))


class AtomicFileWriter:
    """Incremental atomic writes: many ``write()`` calls, one rename.

    :func:`atomic_write_bytes` needs the whole payload in memory; the
    streaming writers (chunked synthesis-to-disk, trace block writers)
    produce output block by block and must never hold it all at once.
    This class hands out a real binary file handle to a temp file next
    to the destination; :meth:`commit` flushes, fsyncs and renames it
    over ``path`` in one atomic step, :meth:`abort` discards it. Used as
    a context manager it commits on success and aborts on any exception
    — a kill mid-write leaves the destination untouched.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        fd, self._temp_name = _temp_beside(self.path)
        self.handle = os.fdopen(fd, "w+b")
        self._committed = False

    def write(self, data: bytes) -> int:
        return self.handle.write(data)

    def tell(self) -> int:
        return self.handle.tell()

    def seek(self, offset: int, whence: int = os.SEEK_SET) -> int:
        return self.handle.seek(offset, whence)

    def commit(self) -> int:
        """Flush, fsync, and atomically publish; returns file size."""
        if self._committed:
            raise RuntimeError(f"{self.path}: already committed")
        self.handle.flush()
        os.fsync(self.handle.fileno())
        size = self.handle.seek(0, os.SEEK_END)
        self.handle.close()
        os.replace(self._temp_name, self.path)
        self._committed = True
        return size

    def abort(self) -> None:
        """Discard the temp file; the destination is left untouched."""
        if self._committed:
            return
        try:
            self.handle.close()
        finally:
            try:
                os.unlink(self._temp_name)
            except OSError:
                pass

    def __enter__(self) -> "AtomicFileWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None and not self._committed:
            self.commit()
        else:
            self.abort()
