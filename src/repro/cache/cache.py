"""A set-associative, write-back, write-allocate LRU cache (atomic mode).

Matches the paper's Sec. V methodology: gem5 atomic-mode simulation that
"disregards the timestamp feature, focusing only on the order requests
arrive", with "a least-recently used replacement policy". Statistics
cover everything Figs. 14–16 report: miss rate, replacements,
write-backs and footprint.

Each set is a dict mapping ``tag -> dirty`` whose insertion order is
recency order: a hit pops and reinserts its tag and a fill appends, so
``next(iter(set))`` is always the least-recently-used way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..core.request import MemoryRequest, Operation


@dataclass(frozen=True)
class CacheConfig:
    size: int  # bytes
    associativity: int
    block_size: int = 64

    def __post_init__(self) -> None:
        if self.size <= 0 or self.associativity <= 0 or self.block_size <= 0:
            raise ValueError("size, associativity and block_size must be positive")
        if self.block_size & (self.block_size - 1):
            raise ValueError("block_size must be a power of two")
        if self.size % (self.associativity * self.block_size):
            raise ValueError("size must be a multiple of associativity * block_size")

    @property
    def num_sets(self) -> int:
        return self.size // (self.associativity * self.block_size)


@dataclass
class CacheStats:
    accesses: int = 0
    misses: int = 0
    read_accesses: int = 0
    read_misses: int = 0
    write_accesses: int = 0
    write_misses: int = 0
    replacements: int = 0
    write_backs: int = 0
    footprint_blocks: Set[int] = field(default_factory=set)

    @property
    def hits(self) -> int:
        return self.accesses - self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def footprint_bytes(self) -> int:
        """Unique bytes touched, at block granularity."""
        return len(self.footprint_blocks)


@dataclass
class AccessResult:
    """Outcome of a single block access."""

    hit: bool
    writeback_address: Optional[int] = None  # dirty victim block address
    victim_address: Optional[int] = None  # any victim block address


class Cache:
    """One level of a write-back, write-allocate LRU cache."""

    __slots__ = ("config", "stats", "num_sets", "sets")

    def __init__(self, config: CacheConfig):
        self.config = config
        self.stats = CacheStats()
        self.num_sets = config.num_sets
        self.sets: List[Dict[int, bool]] = [dict() for _ in range(self.num_sets)]

    def replay(self, blocks: List[int], writes: List[bool]) -> Tuple[List[int], List[bool]]:
        """Demand-access a block stream; return the traffic it sends below.

        The returned stream holds, per miss and in order, the dirty
        victim's write-back (if any) and then the fill read of the
        missing block: exactly the accesses the next level sees.
        """
        stats = self.stats
        write_count = sum(writes)
        stats.accesses += len(blocks)
        stats.write_accesses += write_count
        stats.read_accesses += len(blocks) - write_count
        stats.footprint_blocks.update(blocks)

        sets = self.sets
        num_sets = self.num_sets
        associativity = self.config.associativity
        below_blocks: List[int] = []
        below_writes: List[bool] = []
        emit_block = below_blocks.append
        emit_write = below_writes.append
        misses = write_misses = replacements = write_backs = 0

        for block, is_write in zip(blocks, writes):
            set_index = block % num_sets
            tag = block // num_sets
            ways = sets[set_index]
            dirty = ways.pop(tag, None)
            if dirty is not None:
                # Hit: reinsert to move the tag to most-recent.
                ways[tag] = dirty or is_write
                continue
            misses += 1
            if is_write:
                write_misses += 1
            if len(ways) == associativity:
                victim_tag = next(iter(ways))
                replacements += 1
                if ways.pop(victim_tag):
                    write_backs += 1
                    emit_block(victim_tag * num_sets + set_index)
                    emit_write(True)
            ways[tag] = is_write
            emit_block(block)
            emit_write(False)

        stats.misses += misses
        stats.write_misses += write_misses
        stats.read_misses += misses - write_misses
        stats.replacements += replacements
        stats.write_backs += write_backs
        return below_blocks, below_writes

    def access_block(self, block_address: int, is_write: bool) -> AccessResult:
        """Access one block; fills on miss, evicting the LRU way if needed."""
        stats = self.stats
        stats.accesses += 1
        if is_write:
            stats.write_accesses += 1
        else:
            stats.read_accesses += 1
        stats.footprint_blocks.add(block_address)

        ways = self.sets[block_address % self.num_sets]
        tag = block_address // self.num_sets
        dirty = ways.pop(tag, None)
        if dirty is not None:
            ways[tag] = dirty or is_write
            return AccessResult(hit=True)
        stats.misses += 1
        if is_write:
            stats.write_misses += 1
        else:
            stats.read_misses += 1
        return self._fill(block_address, is_write)

    def fill_block(self, block_address: int) -> AccessResult:
        """Insert a block without demand-access accounting (prefetch fill).

        Replacements and dirty write-backs are still counted — they are
        real traffic — but hits/misses/footprint are untouched. Filling a
        resident block is a no-op and leaves its recency unchanged.
        """
        if self.contains(block_address):
            return AccessResult(hit=True)
        return self._fill(block_address, False)

    def _fill(self, block_address: int, dirty: bool) -> AccessResult:
        """Allocate a missing block as most-recent, evicting the LRU way if full."""
        set_index = block_address % self.num_sets
        ways = self.sets[set_index]
        victim_address = writeback_address = None
        if len(ways) == self.config.associativity:
            victim_tag = next(iter(ways))
            victim_address = victim_tag * self.num_sets + set_index
            self.stats.replacements += 1
            if ways.pop(victim_tag):
                self.stats.write_backs += 1
                writeback_address = victim_address
        ways[block_address // self.num_sets] = dirty
        return AccessResult(
            hit=False, writeback_address=writeback_address, victim_address=victim_address
        )

    def access(self, request: MemoryRequest) -> List[AccessResult]:
        """Access every block a request touches (requests may straddle blocks)."""
        block_size = self.config.block_size
        first = request.address // block_size
        last = (request.end_address - 1) // block_size
        return [
            self.access_block(block, request.operation is Operation.WRITE)
            for block in range(first, last + 1)
        ]

    def contains(self, block_address: int) -> bool:
        return block_address // self.num_sets in self.sets[block_address % self.num_sets]
