"""Cross-run experiment memoization on top of the content-addressed store.

The expensive unit of work in this repo is one :func:`execute_job`
payload (a baseline/McC/STM simulation trio, a SPEC synthetic-trace
quartet, or a size record). Each is fully deterministic in its job
dataclass plus the package code and default configuration — so once
computed, it can be reused by every later process.

Key derivation (invalidation rules):

* the canonicalized job dataclass (type name + every field, via
  ``dataclasses.asdict`` on sorted keys),
* the repro package version (bumping ``repro.__version__`` invalidates
  every cached payload, the blunt-but-safe answer to "the simulator
  changed"),
* a fingerprint of the default :class:`~repro.dram.config.MemoryConfig`
  (so editing Table III defaults invalidates DRAM-dependent entries),
* and the payload schema constant (bumped when the pickled payload
  layout changes).

Layout under the memo root::

    objects/<aa>/<digest>   sha256-addressed pickled payloads (the CAS)
    keys/<cache-key>        one small file: the payload's blob digest
    locks/<cache-key>.lock  per-key compute locks (repro.store.locks)

The key -> digest indirection keeps the blob store honest (blobs are
named by *content*, keys by *meaning*) and makes corruption recovery
trivial: a bad blob is evicted and its key file dropped, so the next
fetch misses and the caller recomputes.

Payloads are pickled. That is safe here because a cache directory is
written and read by the same trusted user (same threat model as
``~/.cache/pip``); integrity — not authenticity — is what the sha256
check buys.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pickle
import threading
from pathlib import Path
from typing import Any, List, Optional, Union

from .. import obs
from ..core.errors import CorruptArtifactError
from .atomic import atomic_write_text
from .cas import ContentAddressedStore
from .locks import FileLock

#: Bump when the pickled payload layout changes incompatibly.
MEMO_SCHEMA = 1

#: Pinned pickle protocol so one cache dir is portable across the
#: Python versions CI exercises.
_PICKLE_PROTOCOL = 4

_KEY_CHARS = set("0123456789abcdef")

_fingerprint_cache: Optional[str] = None


def _environment_fingerprint() -> str:
    """Code/config salt folded into every cache key.

    Imports lazily (and caches) to keep :mod:`repro.store` importable
    from inside ``repro``'s own package initialization.
    """
    global _fingerprint_cache
    if _fingerprint_cache is None:
        from .. import __version__
        from ..dram.config import MemoryConfig

        payload = json.dumps(
            {
                "schema": MEMO_SCHEMA,
                "version": __version__,
                "memory_config": repr(MemoryConfig()),
            },
            sort_keys=True,
        )
        _fingerprint_cache = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    return _fingerprint_cache


def _active_backend() -> str:
    """The resolved trace backend, read live (not cached).

    The backend can change mid-process (``set_backend``, env overrides),
    so it cannot ride along in the cached environment fingerprint.
    Folding it into every key means columnar-era payloads can never
    collide with scalar-era entries — both backends are bit-identical by
    contract, but the cache must not be the thing relying on that.
    """
    from ..core.columnar import active_backend

    return active_backend()


def _active_sampling() -> str:
    """The live sampling configuration (``"off"`` or ``k=K:seed=S``).

    Like :func:`_active_backend` this is read per key, not cached:
    ``MOCKTAILS_SAMPLE_INTERVALS`` can change mid-process (CLI flags
    set and restore it around a run), and a sampled estimate must never
    alias the full pipeline's payload in the store.
    """
    from ..sample import sampling_fingerprint

    return sampling_fingerprint()


def cache_key(job: Any) -> str:
    """Stable hex cache key for one job dataclass."""
    if not dataclasses.is_dataclass(job):
        raise TypeError(f"jobs must be dataclasses, got {type(job).__name__}")
    canonical = json.dumps(
        {
            "env": _environment_fingerprint(),
            "backend": _active_backend(),
            "sampling": _active_sampling(),
            "kind": type(job).__name__,
            "fields": dataclasses.asdict(job),
        },
        sort_keys=True,
        separators=(",", ":"),
        default=repr,
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ExperimentMemo:
    """Durable memo table for ``execute_job`` payloads.

    Tracks its own hit/miss/corrupt tallies (plain ints, always on) and
    mirrors them into :mod:`repro.obs` counters (``store.memo.*``) when
    a registry is active.
    """

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.cas = ContentAddressedStore(self.root)
        self._keys = self.root / "keys"
        self._locks = self.root / "locks"
        self._keys.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        # The tallies are read-modify-write, so threads sharing one memo
        # need a leaf lock (never held across I/O — see the lock-ordering
        # rule in repro.store.locks).
        self._tally_lock = threading.Lock()

    # -- key index -----------------------------------------------------------

    def _key_path(self, key: str) -> Path:
        if len(key) != 64 or any(c not in _KEY_CHARS for c in key):
            raise ValueError(f"not a memo cache key: {key!r}")
        return self._keys / key

    def _read_digest(self, key: str) -> Optional[str]:
        try:
            digest = self._key_path(key).read_text().strip()
        except (OSError, UnicodeDecodeError):
            return None
        if len(digest) != 64 or any(c not in _KEY_CHARS for c in digest):
            return None
        return digest

    def _drop_key(self, key: str) -> None:
        try:
            self._key_path(key).unlink()
        except FileNotFoundError:
            pass

    def keys(self) -> List[str]:
        """Every cache key currently indexed."""
        if not self._keys.is_dir():
            return []
        return sorted(p.name for p in self._keys.iterdir() if len(p.name) == 64)

    # -- memoization ----------------------------------------------------------

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

        A corrupt blob (failed sha256 check *or* an unpicklable payload)
        counts as a miss: the blob and its key entry are evicted so the
        caller recomputes and overwrites, never re-reads garbage.
        """
        key = cache_key(job)
        digest = self._read_digest(key)
        if digest is None:
            self._miss()
            return None
        try:
            blob = self.cas.get(digest)
            payload = pickle.loads(blob)
        except CorruptArtifactError:
            self.cas.evict(digest)
            self._drop_key(key)
            self._miss(corrupt=True)
            return None
        except KeyError:
            self._drop_key(key)
            self._miss()
            return None
        except Exception:
            # Undecodable pickle: treat exactly like a corrupt blob.
            self.cas.evict(digest)
            self._drop_key(key)
            self._miss(corrupt=True)
            return None
        with self._tally_lock:
            self.hits += 1
        self._count("hits")
        return payload

    def store(self, job: Any, payload: Any) -> str:
        """Memoize ``payload`` under ``job``'s key; returns the blob digest."""
        key = cache_key(job)
        digest = self.cas.put(pickle.dumps(payload, protocol=_PICKLE_PROTOCOL))
        atomic_write_text(self._key_path(key), digest + "\n")
        self._count("stores")
        return digest

    def lock(self, job: Any, timeout: float = 600.0) -> FileLock:
        """The per-key compute lock for ``job``."""
        return FileLock(self._locks / f"{cache_key(job)}.lock", timeout=timeout)

    # -- maintenance ----------------------------------------------------------

    def stats(self) -> dict:
        cas_stats = self.cas.stats()
        with self._tally_lock:
            session = {
                "hits": self.hits,
                "misses": self.misses,
                "corrupt": self.corrupt,
            }
        return {
            "root": str(self.root),
            "entries": len(self.keys()),
            "blobs": cas_stats["blobs"],
            "bytes": cas_stats["bytes"],
            "session": session,
        }

    def verify(self, evict_corrupt: bool = True) -> dict:
        """Integrity-check every blob and prune dangling key entries.

        Returns ``{"checked", "corrupt", "dangling"}``. With
        ``evict_corrupt`` (the default) failing blobs are removed, so
        the next run recomputes them.
        """
        checked = len(list(self.cas.digests()))
        corrupt = self.cas.verify(evict_corrupt=evict_corrupt)
        dangling = []
        for key in self.keys():
            digest = self._read_digest(key)
            if digest is None or not self.cas.contains(digest):
                dangling.append(key)
                if evict_corrupt:
                    self._drop_key(key)
        return {"checked": checked, "corrupt": corrupt, "dangling": dangling}

    def gc(self, max_bytes: int) -> List[str]:
        """LRU-evict blobs past the byte budget, then prune their keys."""
        evicted = self.cas.gc(max_bytes)
        if evicted:
            gone = set(evicted)
            for key in self.keys():
                digest = self._read_digest(key)
                if digest is not None and digest in gone:
                    self._drop_key(key)
        return evicted

    def clear(self) -> int:
        """Drop every entry; returns the number of blobs removed."""
        removed = 0
        for digest in list(self.cas.digests()):
            removed += self.cas.evict(digest)
        for key in self.keys():
            self._drop_key(key)
        return removed
