"""Hardware prefetcher models for the cache substrate.

The paper's Sec. V validates that Mocktails clones preserve cache
behaviour; prefetching studies are a natural next consumer (the clone
must preserve the stream/stride structure a prefetcher keys on — which
is exactly what McC stride models capture). Two classic prefetchers:

* **next-line**: on a demand miss to block B, prefetch B+1..B+degree;
* **stride**: a per-region stride detector (confirmed after ``threshold``
  repeats) that prefetches ahead along the detected stride.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from ..core.request import MemoryRequest, Operation
from .cache import Cache, CacheConfig


class Prefetcher:
    """Predicts block addresses to prefetch after a demand access."""

    name = "abstract"

    def predict(self, block: int, was_miss: bool) -> List[int]:
        raise NotImplementedError


class NextLinePrefetcher(Prefetcher):
    """Prefetch the next ``degree`` sequential blocks on a miss."""

    name = "next-line"

    def __init__(self, degree: int = 1):
        if degree <= 0:
            raise ValueError("degree must be positive")
        self.degree = degree

    def predict(self, block: int, was_miss: bool) -> List[int]:
        if not was_miss:
            return []
        return [block + offset for offset in range(1, self.degree + 1)]


class StridePrefetcher(Prefetcher):
    """Detect per-region strides; prefetch ahead once confirmed."""

    name = "stride"

    def __init__(self, degree: int = 2, threshold: int = 2, region_blocks: int = 64):
        if degree <= 0 or threshold <= 0 or region_blocks <= 0:
            raise ValueError("degree, threshold and region_blocks must be positive")
        self.degree = degree
        self.threshold = threshold
        self.region_blocks = region_blocks
        # region -> (last block, last stride, confirmations)
        self._table: Dict[int, List[int]] = {}

    def predict(self, block: int, was_miss: bool) -> List[int]:
        region = block // self.region_blocks
        entry = self._table.get(region)
        if entry is None:
            self._table[region] = [block, 0, 0]
            return []
        last_block, last_stride, confirmations = entry
        stride = block - last_block
        if stride != 0 and stride == last_stride:
            confirmations += 1
        elif stride != 0:
            confirmations = 0
        self._table[region] = [block, stride if stride else last_stride, confirmations]
        if stride and confirmations >= self.threshold:
            # A descending stride runs out at block 0; nothing lies below it.
            return [
                block + stride * step
                for step in range(1, self.degree + 1)
                if block + stride * step >= 0
            ]
        return []


@dataclass
class PrefetchStats:
    issued: int = 0
    useful: int = 0  # prefetched lines later hit by demand
    late_or_useless: int = 0  # evicted before use

    @property
    def accuracy(self) -> float:
        finished = self.useful + self.late_or_useless
        return self.useful / finished if finished else 0.0


class PrefetchingCache:
    """A cache front end that drives a prefetcher alongside demand traffic.

    Prefetch fills do not count as demand accesses; a demand hit on a
    block brought in by the prefetcher counts as a *useful* prefetch.
    """

    def __init__(self, config: CacheConfig, prefetcher: Prefetcher):
        self.cache = Cache(config)
        self.prefetcher = prefetcher
        self.stats = PrefetchStats()
        self._prefetched: set = set()  # resident blocks owed to prefetches

    @property
    def demand_stats(self):
        return self.cache.stats

    def access_block(self, block: int, is_write: bool) -> bool:
        """One demand access; returns hit/miss. Trains the prefetcher."""
        result = self.cache.access_block(block, is_write)
        if result.hit and block in self._prefetched:
            self.stats.useful += 1
            self._prefetched.discard(block)
        if result.victim_address is not None:
            self._note_eviction(result.victim_address)
        for predicted in self.prefetcher.predict(block, not result.hit):
            self._prefetch(predicted)
        return result.hit

    def _prefetch(self, block: int) -> None:
        if self.cache.contains(block):
            return
        fill = self.cache.fill_block(block)
        if fill.victim_address is not None:
            self._note_eviction(fill.victim_address)
        self._prefetched.add(block)
        self.stats.issued += 1

    def _note_eviction(self, victim_block: int) -> None:
        if victim_block in self._prefetched:
            self._prefetched.discard(victim_block)
            self.stats.late_or_useless += 1

    def run(self, requests: Iterable[MemoryRequest]) -> None:
        block_size = self.cache.config.block_size
        for request in requests:
            first = request.address // block_size
            last = (request.end_address - 1) // block_size
            for block in range(first, last + 1):
                self.access_block(block, request.operation is Operation.WRITE)
