"""HRD baseline (Maeda et al., HPCA 2017): hierarchical reuse distance.

HRD models a workload with reuse-distance histograms at two block
granularities: reuse is modeled at 64B first and, on a cold miss
(infinite reuse distance), at the 4KB granularity (paper Sec. V-A). A
multi-state operation model with explicit *clean* and *dirty* states
captures read/write behaviour. Matching the original work, HRD profiles
the whole trace globally (no temporal phases).

Synthesis replays the histograms against LRU stacks of generated blocks:
a finite 64B distance re-touches the block at that depth; a cold 64B
sample consults the 4KB histogram to pick (or allocate) a page and
touches a fresh block inside it.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import List, Sequence

from ..core.request import MemoryRequest, Operation
from ..core.trace import Trace
from .reuse import COLD, LRUStack, ReuseHistogram, stack_distances

FINE_GRANULARITY = 64
COARSE_GRANULARITY = 4096


class CleanDirtyModel:
    """Multi-state operation model with explicit clean/dirty block states.

    Profiles, per state of the *referenced block* (new, clean, dirty),
    the probability that the access is a write. Synthesis tracks the
    clean/dirty state of generated blocks the same way.
    """

    STATES = ("new", "clean", "dirty")

    def __init__(self, write_counts: dict, total_counts: dict):
        self.write_counts = {state: int(write_counts.get(state, 0)) for state in self.STATES}
        self.total_counts = {state: int(total_counts.get(state, 0)) for state in self.STATES}

    @classmethod
    def fit(cls, blocks: Sequence[int], operations: Sequence[Operation]) -> "CleanDirtyModel":
        if len(blocks) != len(operations):
            raise ValueError("blocks and operations must be the same length")
        write_counts = {state: 0 for state in cls.STATES}
        total_counts = {state: 0 for state in cls.STATES}
        dirty: dict = {}
        for block, operation in zip(blocks, operations):
            if block not in dirty:
                state = "new"
            elif dirty[block]:
                state = "dirty"
            else:
                state = "clean"
            total_counts[state] += 1
            if operation is Operation.WRITE:
                write_counts[state] += 1
                dirty[block] = True
            else:
                dirty.setdefault(block, dirty.get(block, False))
                if state == "new":
                    dirty[block] = False
        return cls(write_counts, total_counts)

    def write_probability(self, state: str) -> float:
        total = self.total_counts.get(state, 0)
        if not total:
            # Fall back to the overall write fraction.
            writes = sum(self.write_counts.values())
            accesses = sum(self.total_counts.values())
            return writes / accesses if accesses else 0.0
        return self.write_counts[state] / total

    def sample(self, state: str, rng: random.Random) -> Operation:
        if rng.random() < self.write_probability(state):
            return Operation.WRITE
        return Operation.READ

    def to_dict(self) -> dict:
        return {"write_counts": self.write_counts, "total_counts": self.total_counts}

    @classmethod
    def from_dict(cls, data: dict) -> "CleanDirtyModel":
        return cls(data["write_counts"], data["total_counts"])


class HRDModel:
    """The full HRD profile: two reuse histograms + clean/dirty op model."""

    def __init__(
        self,
        fine_histogram: ReuseHistogram,
        coarse_histogram: ReuseHistogram,
        operation_model: CleanDirtyModel,
        count: int,
        request_size: int,
        base_address: int = 0,
    ):
        self.fine_histogram = fine_histogram
        self.coarse_histogram = coarse_histogram
        self.operation_model = operation_model
        self.count = count
        self.request_size = request_size
        self.base_address = base_address

    @classmethod
    def fit(cls, trace: Trace) -> "HRDModel":
        if not len(trace):
            raise ValueError("cannot fit HRD to an empty trace")
        fine_blocks: List[int] = []
        coarse_blocks: List[int] = []
        operations: List[Operation] = []
        sizes: List[int] = []
        base_address = None
        for request in trace:
            address = request.address
            fine_blocks.append(address // FINE_GRANULARITY)
            coarse_blocks.append(address // COARSE_GRANULARITY)
            operations.append(request.operation)
            sizes.append(request.size)
            if base_address is None or address < base_address:
                base_address = address
        fine_distances = stack_distances(fine_blocks)
        coarse_distances = stack_distances(coarse_blocks)
        # The 4KB histogram is consulted only on 64B cold misses, so it is
        # profiled from the coarse distances observed at those accesses.
        coarse_at_cold = [
            coarse for fine, coarse in zip(fine_distances, coarse_distances) if fine == COLD
        ]
        size_counts = Counter(sizes)
        return cls(
            fine_histogram=ReuseHistogram.fit(fine_distances),
            coarse_histogram=ReuseHistogram.fit(coarse_at_cold),
            operation_model=CleanDirtyModel.fit(fine_blocks, operations),
            count=len(trace),
            # Ties go to the first size in set order, as max() over the set.
            request_size=max(set(sizes), key=size_counts.__getitem__),
            base_address=base_address,
        )

    def synthesize(self, seed: int = 0) -> Trace:
        """Generate a synthetic trace (order-only timestamps, as in Sec. V)."""
        rng = random.Random(seed)
        random_ = rng.random
        blocks_per_page = COARSE_GRANULARITY // FINE_GRANULARITY
        base_page = self.base_address // COARSE_GRANULARITY
        sample_fine = self.fine_histogram.sample
        sample_coarse = self.coarse_histogram.sample
        write_probability = {
            state: self.operation_model.write_probability(state)
            for state in CleanDirtyModel.STATES
        }
        request_size = self.request_size
        read, write = Operation.READ, Operation.WRITE

        fine_lru = LRUStack()  # 64B block numbers
        page_lru = LRUStack()  # 4KB page numbers
        fine_at, fine_access = fine_lru.at_depth, fine_lru.access
        page_at, page_access = page_lru.at_depth, page_lru.access
        fine_count = fine_lru.__len__
        page_count = page_lru.__len__
        page_next_block: dict = {}  # page -> next fresh 64B slot index
        next_new_page = base_page
        dirty: dict = {}
        requests: List[MemoryRequest] = []
        append = requests.append

        for index in range(self.count):
            distance = sample_fine(rng)
            if distance != COLD and fine_count():
                # A finite distance deeper than the current stack clamps to
                # the deepest entry — it is still a reuse, not a cold miss
                # (otherwise synthesis would inflate the footprint).
                block = fine_at(min(distance, fine_count() - 1))
                state = "dirty" if dirty.get(block, False) else "clean"
            else:
                page_distance = sample_coarse(rng)
                if page_distance != COLD and page_count():
                    page = page_at(min(page_distance, page_count() - 1))
                    if page_next_block.get(page, 0) >= blocks_per_page:
                        # Every 64B block of this page has been touched; a
                        # cold fine-grained miss cannot land here, so the
                        # footprint grows with a fresh page instead.
                        page = next_new_page
                        next_new_page += 1
                else:
                    page = next_new_page
                    next_new_page += 1
                slot = page_next_block.get(page, 0)
                block = page * blocks_per_page + (slot % blocks_per_page)
                page_next_block[page] = slot + 1
                if block in dirty:
                    # Wrapped around inside a fully-touched page: reuse.
                    state = "dirty" if dirty[block] else "clean"
                else:
                    state = "new"
            if random_() < write_probability[state]:
                operation = write
                dirty[block] = True
            else:
                operation = read
                dirty[block] = dirty.get(block, False)

            fine_access(block)
            page_access(block // blocks_per_page)

            append(MemoryRequest(index, block * FINE_GRANULARITY, operation, request_size))
        return Trace(requests)

    def to_dict(self) -> dict:
        return {
            "fine_histogram": self.fine_histogram.to_dict(),
            "coarse_histogram": self.coarse_histogram.to_dict(),
            "operation_model": self.operation_model.to_dict(),
            "count": self.count,
            "request_size": self.request_size,
            "base_address": self.base_address,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "HRDModel":
        return cls(
            ReuseHistogram.from_dict(data["fine_histogram"]),
            ReuseHistogram.from_dict(data["coarse_histogram"]),
            CleanDirtyModel.from_dict(data["operation_model"]),
            data["count"],
            data["request_size"],
            data["base_address"],
        )
