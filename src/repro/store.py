"""``repro.store`` — the cross-run result store.

The expensive unit of work in this repo is one job payload (a
baseline/McC/STM simulation trio, a SPEC synthetic-trace quartet, or a
size record; see :mod:`repro.eval.parallel`). Each is fully determined
by its job dataclass plus the package code, so once computed it can be
reused by every later process. The experiment runners consult a
process-wide *active* memo, installed with :func:`configure` (the CLI
does this by default, pointing at ``~/.cache/repro``; ``--no-cache``
opts out)::

    from repro import store

    store.configure()                 # ~/.cache/repro (or $REPRO_CACHE_DIR)
    run_experiment("fig6", 20_000)    # warm runs load, not simulate
    store.deactivate()

Key derivation (invalidation rules): sha256 over

* the package's own sources — sorted relative paths plus bytes of every
  ``repro/**/*.py`` (:func:`source_digest`), so any code edit, default
  configuration included, misses instead of serving stale figures;
* the profile-build path numpy availability selects
  (:func:`~repro.core.columnar.resolve_backend`, read live per key);
* the job's type name and every field.

Layout: one file per key, ``<root>/<key[:2]>/<key>``, holding the
payload's 32-byte sha256 followed by the pickled payload, written
atomically (:mod:`repro.core.atomic`). Every read re-hashes the payload;
a mismatch or an unpicklable payload unlinks the file and counts as a
corrupt miss, so the caller recomputes. There are no locks: two
processes sharing a directory may compute the same job, and each writes
the same bytes atomically — the cost is wasted work, never a torn entry.

Payloads are pickled. That is safe here because a cache directory is
written and read by the same trusted user (same threat model as
``~/.cache/pip``); integrity — not authenticity — is what the sha256
check buys.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import shutil
import threading
from pathlib import Path
from typing import Any, List, Optional, Union

from . import obs
from .core.atomic import atomic_write_bytes
from .core.columnar import resolve_backend

#: Pinned pickle protocol so one cache dir is portable across the
#: Python versions CI exercises.
_PICKLE_PROTOCOL = 4

_DIGEST_BYTES = 32

_KEY_CHARS = frozenset("0123456789abcdef")

#: The subdirectories of the layout before keys hashed the package
#: sources. Nothing reads them; :meth:`ExperimentMemo.clear` removes them.
_OLD_LAYOUT = ("keys", "objects", "locks")

_fingerprint_cache: Optional[str] = None


def source_digest(root: Union[str, Path]) -> str:
    """sha256 over the sorted relative paths and bytes of ``root/**/*.py``."""
    root = Path(root)
    digest = hashlib.sha256()
    for relative in sorted(path.relative_to(root).as_posix() for path in root.rglob("*.py")):
        data = (root / relative).read_bytes()
        digest.update(f"{relative}\0{len(data)}\0".encode("utf-8"))
        digest.update(data)
    return digest.hexdigest()


def _code_fingerprint() -> str:
    """This package's :func:`source_digest`, computed once per process."""
    global _fingerprint_cache
    if _fingerprint_cache is None:
        _fingerprint_cache = source_digest(Path(__file__).parent)
    return _fingerprint_cache


def cache_key(job: Any) -> str:
    """Stable hex cache key for one job dataclass."""
    if not dataclasses.is_dataclass(job):
        raise TypeError(f"jobs must be dataclasses, got {type(job).__name__}")
    canonical = json.dumps(
        {
            "source": _code_fingerprint(),
            "backend": resolve_backend(),
            "kind": type(job).__name__,
            "fields": dataclasses.asdict(job),
        },
        sort_keys=True,
        separators=(",", ":"),
        default=repr,
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _is_key(name: str) -> bool:
    return len(name) == 64 and all(c in _KEY_CHARS for c in name)


class ExperimentMemo:
    """Durable memo table for job payloads.

    Tracks its own hit/miss/corrupt tallies (plain ints, always on) and
    mirrors them into :mod:`repro.obs` counters (``store.memo.*``) when
    a registry is active.
    """

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        # The tallies are read-modify-write, so threads sharing one memo
        # need a leaf lock (never held across I/O).
        self._tally_lock = threading.Lock()

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / key

    def _entries(self) -> List[Path]:
        if not self.root.is_dir():
            return []
        return sorted(path for path in self.root.glob("??/*") if _is_key(path.name))

    def _count(self, counter: str) -> None:
        registry = obs.active()
        if registry is not None:
            registry.counter(f"store.memo.{counter}").inc()

    def _miss(self, corrupt: bool = False) -> None:
        with self._tally_lock:
            self.misses += 1
            if corrupt:
                self.corrupt += 1
        if corrupt:
            self._count("corrupt")
        self._count("misses")

    def fetch(self, job: Any) -> Optional[Any]:
        """The memoized payload for ``job``, or ``None`` on a miss.

        A corrupt entry (failed sha256 check *or* an unpicklable
        payload) counts as a miss and is unlinked, so the caller
        recomputes and overwrites, never re-reads garbage.
        """
        path = self._path(cache_key(job))
        try:
            data = path.read_bytes()
        except OSError:
            self._miss()
            return None
        blob = data[_DIGEST_BYTES:]
        try:
            if hashlib.sha256(blob).digest() != data[:_DIGEST_BYTES]:
                raise ValueError("payload digest mismatch")
            payload = pickle.loads(blob)
        except Exception:  # unpickling garbage can raise almost anything
            try:
                path.unlink()
            except FileNotFoundError:
                pass
            self._miss(corrupt=True)
            return None
        with self._tally_lock:
            self.hits += 1
        self._count("hits")
        return payload

    def store(self, job: Any, payload: Any) -> None:
        """Memoize ``payload`` under ``job``'s key."""
        blob = pickle.dumps(payload, protocol=_PICKLE_PROTOCOL)
        path = self._path(cache_key(job))
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_bytes(path, hashlib.sha256(blob).digest() + blob)
        self._count("stores")

    def stats(self) -> dict:
        entries = self._entries()
        with self._tally_lock:
            session = {"hits": self.hits, "misses": self.misses, "corrupt": self.corrupt}
        return {
            "root": str(self.root),
            "entries": len(entries),
            "bytes": sum(path.stat().st_size for path in entries),
            "session": session,
        }

    def clear(self) -> int:
        """Drop every entry and the old layout; returns the entries removed."""
        entries = self._entries()
        for path in entries:
            path.unlink()
        for name in _OLD_LAYOUT:
            if (self.root / name).is_dir():
                shutil.rmtree(self.root / name)
        return len(entries)


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro``, else
    ``~/.cache/repro``."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro"


_active_memo: Optional[ExperimentMemo] = None


def active_memo() -> Optional[ExperimentMemo]:
    """The process-wide memo, or ``None`` when cross-run caching is off."""
    return _active_memo


def configure(cache_dir: Optional[Union[str, Path]] = None) -> ExperimentMemo:
    """Install (and return) the process-wide experiment memo."""
    global _active_memo
    _active_memo = ExperimentMemo(cache_dir if cache_dir is not None else default_cache_dir())
    return _active_memo


def deactivate() -> None:
    """Stop consulting the cross-run cache (files stay on disk)."""
    global _active_memo
    _active_memo = None
