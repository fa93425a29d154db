"""``repro.stream`` — out-of-core streaming: chunked trace I/O and the
map-reduce profile build.

The in-memory pipeline caps trace size at available RAM. This package
removes that cap end to end:

* :func:`iter_blocks` — iterate a ``.mtr``/``.csv`` file (plain or gz)
  as fixed-size :class:`~repro.core.columnar.ColumnarTrace` blocks;
* :class:`TraceBlockWriter` — write blocks to any trace format through
  ``store.atomic`` (crash-safe, byte-identical to the one-shot savers);
* :class:`ProfilePartial` / :func:`build_profile_streaming` /
  :func:`build_profile_sharded` — the map-reduce profile build, merged
  output bit-identical to ``core/profiler.py`` down to serialized
  bytes;
* the ``MOCKTAILS_STREAM`` switch — route every
  :func:`~repro.core.profiler.build_profile` call through the streaming
  path (what ``python -m repro.eval --stream`` sets), with
  ``MOCKTAILS_STREAM_BLOCK_REQUESTS`` controlling the block size.

Streaming replay lives next to the engines it drives:
:func:`repro.sim.cache_driver.run_cache_blocks`,
:func:`repro.sim.driver.simulate_blocks` (which feeds blocks straight
into the memory-system engine, ``repro.dram.batched`` — no per-request
expansion), and
:func:`repro.core.synthesis.synthesize_to_file`.
"""

from __future__ import annotations

import os
from typing import Optional

from .partial import LeafPartial, McCPartial, ProfilePartial
from .profiler import build_profile_streaming
from .reader import DEFAULT_BLOCK_REQUESTS, iter_blocks
from .writer import TraceBlockWriter

__all__ = [
    "DEFAULT_BLOCK_REQUESTS",
    "LeafPartial",
    "McCPartial",
    "ProfilePartial",
    "TraceBlockWriter",
    "build_profile_sharded",
    "build_profile_streaming",
    "iter_blocks",
    "set_stream_mode",
    "stream_block_requests",
    "stream_requested",
]

_STREAM_ENV = "MOCKTAILS_STREAM"
_BLOCK_ENV = "MOCKTAILS_STREAM_BLOCK_REQUESTS"
_OFF_VALUES = ("", "0", "false", "off", "no")


def stream_requested() -> bool:
    """Whether the ``MOCKTAILS_STREAM`` switch is on for this process."""
    return os.environ.get(_STREAM_ENV, "").strip().lower() not in _OFF_VALUES


def stream_block_requests() -> int:
    """The configured streaming block size (requests per block)."""
    raw = os.environ.get(_BLOCK_ENV, "").strip()
    if not raw:
        return DEFAULT_BLOCK_REQUESTS
    value = int(raw)
    if value <= 0:
        raise ValueError(
            f"${_BLOCK_ENV} must be a positive request count, got {raw!r}"
        )
    return value


def set_stream_mode(enabled: bool, block_requests: Optional[int] = None) -> None:
    """Select process-wide streaming (what ``--stream`` calls).

    Recorded in the environment so worker processes spawned by
    :mod:`repro.eval.parallel` inherit the choice, exactly like
    :func:`repro.core.columnar.set_backend`.
    """
    if block_requests is not None:
        if block_requests <= 0:
            raise ValueError(
                f"block_requests must be positive, got {block_requests}"
            )
        os.environ[_BLOCK_ENV] = str(block_requests)
    if enabled:
        os.environ[_STREAM_ENV] = "1"
    else:
        os.environ.pop(_STREAM_ENV, None)
        if block_requests is None:
            os.environ.pop(_BLOCK_ENV, None)


def __getattr__(name: str):
    # build_profile_sharded pulls in the eval worker-pool machinery;
    # loaded on first use so plain streaming stays import-light.
    if name == "build_profile_sharded":
        from .parallel import build_profile_sharded

        return build_profile_sharded
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
