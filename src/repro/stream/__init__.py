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
  bytes.

Streaming replay lives next to the engines it drives:
:func:`repro.sim.cache_driver.run_cache_blocks`,
:func:`repro.sim.driver.simulate_blocks` (which feeds blocks straight
into the memory-system engine, ``repro.dram.batched`` — no per-request
expansion), and
:func:`repro.core.synthesis.synthesize_to_file`.
"""

from __future__ import annotations

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
]


def __getattr__(name: str):
    # build_profile_sharded pulls in the eval worker-pool machinery;
    # loaded on first use so plain streaming stays import-light.
    if name == "build_profile_sharded":
        from .parallel import build_profile_sharded

        return build_profile_sharded
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
