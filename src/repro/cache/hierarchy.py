"""A two-level cache hierarchy in atomic mode (paper Sec. V-A).

The default configuration matches the paper: a write-back L1 of varying
size/associativity in front of a 256KB 8-way L2, 64B blocks everywhere.
On an L1 miss the L2 is accessed; an L1 dirty eviction is written back
into the L2 (a write access at the victim's address).

Replay is chunked. Each chunk of requests is expanded into a per-block
access stream (a whole-column pass under numpy for column blocks), the
L1 replays that stream, and the L2 replays the L1's write-backs and
fills in the order the L1 issued them. Request objects are expanded in
Python, so addresses beyond the column bounds replay as well.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .. import obs
from ..core.columnar import ColumnarTrace, numpy_or_none
from ..core.request import MemoryRequest, Operation
from .cache import Cache, CacheConfig, CacheStats

_INT64_MAX = 2**63 - 1

#: Requests per replayed chunk (bounds the expanded streams' memory).
DEFAULT_CHUNK_REQUESTS = 8192


def paper_l1_config(size: int = 32 * 1024, associativity: int = 4) -> CacheConfig:
    """An L1 configuration from the paper's sweep (default 32KB 4-way)."""
    return CacheConfig(size=size, associativity=associativity, block_size=64)


def paper_l2_config() -> CacheConfig:
    """The fixed 256KB 8-way L2 used throughout Sec. V."""
    return CacheConfig(size=256 * 1024, associativity=8, block_size=64)


class CacheHierarchy:
    """L1 + L2, accessed in program order (timestamps ignored)."""

    __slots__ = ("l1", "l2")

    def __init__(
        self,
        l1_config: Optional[CacheConfig] = None,
        l2_config: Optional[CacheConfig] = None,
    ):
        self.l1 = Cache(l1_config if l1_config is not None else paper_l1_config())
        self.l2 = Cache(l2_config if l2_config is not None else paper_l2_config())
        if self.l1.config.block_size != self.l2.config.block_size:
            raise ValueError("L1 and L2 must share a block size")

    @property
    def l1_stats(self) -> CacheStats:
        return self.l1.stats

    @property
    def l2_stats(self) -> CacheStats:
        return self.l2.stats

    def run(
        self,
        requests: Union[ColumnarTrace, Iterable[MemoryRequest]],
        chunk_requests: int = DEFAULT_CHUNK_REQUESTS,
    ) -> None:
        """Replay a trace, column trace or request iterable (order only)."""
        if chunk_requests <= 0:
            raise ValueError(f"chunk_requests must be positive, got {chunk_requests}")
        block_size = self.l1.config.block_size
        if isinstance(requests, ColumnarTrace):
            self._replay(
                _expand_columns(block, block_size)
                for block in requests.iter_blocks(chunk_requests)
            )
            return
        self._replay(
            _expand_requests(chunk, block_size) for chunk in _chunks(requests, chunk_requests)
        )

    def _replay(self, streams: Iterable[Tuple[List[int], List[bool]]]) -> None:
        levels = (("l1", self.l1.stats), ("l2", self.l2.stats))
        before = [(stats.hits, stats.misses, stats.write_backs) for _, stats in levels]
        for blocks, writes in streams:
            self.l2.replay(*self.l1.replay(blocks, writes))

        registry = obs.active()
        if registry is None:
            return
        # Counters receive this run's deltas; every counter is touched,
        # even on a zero delta, so run manifests always list all six.
        for (label, stats), (hits, misses, write_backs) in zip(levels, before):
            registry.counter(f"cache.{label}.hits").inc(stats.hits - hits)
            registry.counter(f"cache.{label}.misses").inc(stats.misses - misses)
            registry.counter(f"cache.{label}.write_backs").inc(stats.write_backs - write_backs)


def _chunks(requests: Iterable[MemoryRequest], size: int) -> Iterator[List[MemoryRequest]]:
    iterator = iter(requests)
    chunk = list(islice(iterator, size))
    while chunk:
        yield chunk
        chunk = list(islice(iterator, size))


def _expand_requests(requests: List[MemoryRequest], block_size: int):
    write = Operation.WRITE
    return _expand(
        [request.address for request in requests],
        [request.size for request in requests],
        [request.operation is write for request in requests],
        block_size,
    )


def _expand_columns(columns: ColumnarTrace, block_size: int):
    np = numpy_or_none()
    if np is not None and len(columns):
        addresses = columns.addresses
        sizes = columns.sizes
        if int(addresses.max()) + int(sizes.max()) <= _INT64_MAX:
            addr64 = addresses.astype(np.int64)
            firsts = addr64 // block_size
            lasts = (addr64 + sizes.astype(np.int64) - 1) // block_size
            counts = lasts - firsts + 1
            is_write = columns.ops.astype(bool)
            if int(counts.max()) == 1:
                return firsts.tolist(), is_write.tolist()
            starts = np.repeat(np.cumsum(counts) - counts, counts)
            within = np.arange(int(counts.sum()), dtype=np.int64) - starts
            blocks = np.repeat(firsts, counts) + within
            return blocks.tolist(), np.repeat(is_write, counts).tolist()
    return _expand(
        columns.addresses.tolist(),
        columns.sizes.tolist(),
        [bool(op) for op in columns.ops],
        block_size,
    )


def _expand(
    addresses: Sequence[int], sizes: Sequence[int], writes: Sequence[bool], block_size: int
) -> Tuple[List[int], List[bool]]:
    """Every block each request touches, in request order, with its write flag."""
    blocks: List[int] = []
    flags: List[bool] = []
    append_block = blocks.append
    append_flag = flags.append
    for address, size, is_write in zip(addresses, sizes, writes):
        first = address // block_size
        last = (address + size - 1) // block_size
        if first == last:
            append_block(first)
            append_flag(is_write)
            continue
        for block in range(first, last + 1):
            append_block(block)
            append_flag(is_write)
    return blocks, flags
