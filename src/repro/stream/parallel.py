"""Sharded streaming profile build across the worker pool.

The map-reduce structure of :class:`ProfilePartial` makes the streaming
build parallel for free: the parent reads column blocks off disk,
groups them into contiguous shards, and each worker folds one shard
into a partial at its stream offset. Partials come back in submission
order and merge associatively into the offset-0 root, so the result is
bit-identical to the sequential build (and the single-pass one).

In-flight shards are bounded by the pool width, so parent memory stays
O(in-flight shards), not O(trace). Workers come from
:func:`repro.eval.parallel.make_pool` — the same fork-preferred pool
the experiment runners use, with observability disabled in workers.
"""

from __future__ import annotations

from collections import deque
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Tuple, Union

from ..core.columnar import ColumnarTrace
from ..core.hierarchy import HierarchyConfig, two_level_ts
from .partial import ProfilePartial
from .profiler import build_profile_streaming
from .reader import DEFAULT_BLOCK_REQUESTS, iter_blocks

__all__ = ["build_profile_sharded"]


def _build_shard(
    config: HierarchyConfig,
    blocks: List[ColumnarTrace],
    offset: int,
    origin: int,
) -> ProfilePartial:
    """Worker: fold one contiguous shard into a partial at ``offset``."""
    partial = ProfilePartial(config, offset=offset, origin=origin)
    for block in blocks:
        partial.feed(block)
    return partial


def _shards(
    blocks: Iterable[ColumnarTrace], shard_requests: int
) -> Iterator[Tuple[List[ColumnarTrace], int, int]]:
    """Group consecutive blocks into ``(blocks, offset, origin)`` shards."""
    shard: List[ColumnarTrace] = []
    total = 0
    offset = 0
    origin = None
    for block in blocks:
        if not len(block):
            continue
        if origin is None:
            origin = int(block.timestamps[0])
        shard.append(block)
        total += len(block)
        if total >= shard_requests:
            yield shard, offset, origin
            offset += total
            shard = []
            total = 0
    if shard:
        yield shard, offset, origin


def build_profile_sharded(
    path: Union[str, Path],
    config: Optional[HierarchyConfig] = None,
    *,
    name: str = "",
    jobs: Optional[int] = None,
    block_requests: int = DEFAULT_BLOCK_REQUESTS,
    shard_requests: Optional[int] = None,
):
    """Stream a trace file into a profile using ``jobs`` workers.

    ``jobs <= 1`` (or a one-shard trace) degenerates to the sequential
    :func:`build_profile_streaming`. ``shard_requests`` controls the
    work unit handed to each worker (default: 8 blocks' worth).
    """
    from ..eval.parallel import default_processes, make_pool

    if config is None:
        config = two_level_ts()
    processes = default_processes() if jobs is None else jobs
    if processes <= 1:
        return build_profile_streaming(iter_blocks(path, block_requests), config, name=name)
    if shard_requests is None:
        shard_requests = block_requests * 8
    elif shard_requests <= 0:
        raise ValueError(f"shard_requests must be positive, got {shard_requests}")

    root = ProfilePartial(config, name=name)
    pending: deque = deque()
    max_inflight = processes + 2
    with make_pool(processes) as pool:
        for shard, offset, origin in _shards(
            iter_blocks(path, block_requests), shard_requests
        ):
            pending.append(pool.submit(_build_shard, config, shard, offset, origin))
            while len(pending) >= max_inflight:
                root.merge(pending.popleft().result())
        while pending:
            root.merge(pending.popleft().result())
    return root.finish()
