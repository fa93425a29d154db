"""``repro.stream`` — chunked trace I/O.

* :func:`iter_blocks` — iterate a ``.mtr``/``.csv`` file (plain or gz)
  as fixed-size :class:`~repro.core.columnar.ColumnarTrace` blocks;
* :class:`TraceBlockWriter` — write blocks to any trace format through
  ``core.atomic`` (crash-safe, byte-identical to the one-shot savers).

Block-wise replay lives next to the engines it drives:
:func:`repro.sim.cache_driver.run_cache_blocks`,
:func:`repro.sim.driver.simulate_blocks` (which feeds blocks straight
into the memory-system engine, ``repro.dram.batched`` — no per-request
expansion), and
:func:`repro.core.synthesis.synthesize_to_file`.
"""

from __future__ import annotations

from .reader import DEFAULT_BLOCK_REQUESTS, iter_blocks
from .writer import TraceBlockWriter

__all__ = [
    "DEFAULT_BLOCK_REQUESTS",
    "TraceBlockWriter",
    "iter_blocks",
]
