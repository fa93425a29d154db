"""Sequential streaming profile build: blocks in, profile out.

The one-process reduce loop over :class:`ProfilePartial`. For the
sharded multi-process variant see :mod:`repro.stream.parallel`; for the
block sources see :func:`repro.stream.iter_blocks` (disk) and
:meth:`ColumnarTrace.iter_blocks` /
:meth:`WorkloadGenerator.generate_blocks` (memory/generated).
"""

from __future__ import annotations

from typing import Iterable, Optional

from .. import obs
from ..core.columnar import ColumnarTrace
from ..core.hierarchy import HierarchyConfig, two_level_ts
from .partial import ProfilePartial

__all__ = ["build_profile_streaming"]


def build_profile_streaming(
    blocks: Iterable[ColumnarTrace],
    config: Optional[HierarchyConfig] = None,
    *,
    name: str = "",
):
    """Build a profile from a stream of column blocks.

    Bit-identical to :func:`repro.core.profiler.build_profile` over the
    concatenated blocks, with peak memory O(block + open interval)
    instead of O(trace) (see :class:`ProfilePartial` for the per-mode
    bounds). Blocks must arrive in time order.
    """
    if config is None:
        config = two_level_ts()
    registry = obs.active()
    partial = ProfilePartial(config, name=name)
    for block in blocks:
        partial.feed(block)
        if registry is not None:
            registry.counter("stream.blocks").inc()
            registry.counter("stream.requests").inc(len(block))
    return partial.finish()
