"""STM baseline (Awad & Solihin, HPCA 2014), adapted per the paper.

The paper's ``2L-TS (STM)`` configuration replaces the McC models for
the *address* and *operation* features with STM models inside the same
hierarchical partitioning (Sec. IV-A):

* Addresses come from a **stride pattern table** — a Markov-style table
  that predicts the next stride from a history of recent strides (at
  most the last 8) — combined with a 32-row **stack distance table**
  that reintroduces temporal reuse.
* The operation is modeled with **one probability value** (the read
  fraction). Strict convergence still guarantees the exact read/write
  counts, but the *order* of reads and writes is memoryless — exactly
  the weakness Figs. 9–11 expose.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.leaf import AddressModel, LeafModel, OperationModel, wrap_address
from ..core.mcc import McCModel
from ..core.request import AddressRange, MemoryRequest, Operation
from ..core.serialization import register_address_model, register_operation_model
from .reuse import COLD, ReuseHistogram, stack_distances

MAX_STRIDE_HISTORY = 8
STACK_DISTANCE_ROWS = 32


class StrideTable:
    """Variable-order stride pattern table with longest-match fallback.

    Rows map a history tuple of recent strides (length 1..max_history) to
    a counter of observed next strides. Generation consumes counts
    (strict convergence per row) and falls back to shorter histories —
    and finally to the global stride distribution — when a row is
    exhausted or unseen.
    """

    def __init__(
        self,
        rows: Dict[Tuple[int, ...], Counter],
        global_counts: Counter,
        max_history: int = MAX_STRIDE_HISTORY,
    ):
        self.rows = rows
        self.global_counts = global_counts
        self.max_history = max_history
        # Unconsumed counts of the rows generation has touched, each as
        # [sorted strides, their remaining counts, the counts' total].
        self._remaining: Dict[Tuple[int, ...], list] = {}
        # ``global_counts`` as a distribution, made on the first global draw.
        self._global: Optional[ReuseHistogram] = None

    @classmethod
    def fit(cls, strides: Sequence[int], max_history: int = MAX_STRIDE_HISTORY) -> "StrideTable":
        rows: Dict[Tuple[int, ...], Counter] = {}
        global_counts: Counter = Counter(strides)
        # Most rows are new; Counter.__init__ (via its Mapping instance
        # check) would dominate if called for each, and a bare Counter
        # from __new__ is an equally valid empty one.
        new_counter = Counter.__new__
        strides = tuple(strides)
        for index in range(1, len(strides)):
            window = strides[max(0, index - max_history) : index]
            stride = strides[index]
            # Suffixes shortest-first: the row insertion order of one
            # history length after another.
            for start in range(len(window) - 1, -1, -1):
                history = window[start:]
                row = rows.get(history)
                if row is None:
                    rows[history] = row = new_counter(Counter)
                row[stride] = row.get(stride, 0) + 1
        return cls(rows, global_counts, max_history)

    def next_stride(self, history: Sequence[int], rng: random.Random) -> int:
        """Sample the next stride given recent history, consuming counts.

        Counts are consumed from this table's own copy of each row,
        taken on first touch, so ``rows`` keeps the fitted counts. Each
        draw is exactly ``rng.choices(sorted strides, weights=counts)``
        over the row's remaining counts: one ``random()`` call, resolved
        to the same insertion point in the cumulative counts. Sorted
        strides keep sampling invariant to insertion order, so a
        deserialized table generates the same stream for the same seed.
        """
        history = tuple(history[-self.max_history :])
        remaining = self._remaining
        for start in range(len(history)):
            key = history[start:]
            row = remaining.get(key)
            if row is None:
                counts = self.rows.get(key)
                if counts is None:
                    continue
                strides = sorted(counts)
                row = remaining[key] = [strides, [counts[s] for s in strides], sum(counts.values())]
            strides, weights, total = row
            if total > 0:
                # First index whose cumulative count exceeds the
                # threshold; an exhausted (zero) count never does.
                threshold = rng.random() * total
                cumulative = 0
                for index, weight in enumerate(weights):
                    cumulative += weight
                    if threshold < cumulative:
                        break
                weights[index] -= 1
                row[2] = total - 1
                return strides[index]
        if self.global_counts:
            if self._global is None:
                self._global = ReuseHistogram(self.global_counts)
            return self._global.sample(rng)
        return 0

    def to_dict(self) -> dict:
        return {
            "max_history": self.max_history,
            "rows": [
                [list(history), sorted(counter.items())]
                for history, counter in sorted(self.rows.items())
            ],
            "global_counts": sorted(self.global_counts.items()),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "StrideTable":
        rows = {
            tuple(history): Counter(dict(items)) for history, items in data["rows"]
        }
        return cls(rows, Counter(dict(data["global_counts"])), data["max_history"])


class STMAddressModel(AddressModel):
    """STM address synthesis: stride table + stack-distance reuse.

    At each step a stack distance is sampled from the 32-row table; a
    finite distance replays the address at that LRU depth (temporal
    reuse), a cold sample advances via the stride table. Generated
    addresses outside the leaf's region wrap back in, as in McC.
    """

    MODEL_TYPE = "stm"

    def __init__(
        self,
        start_address: int,
        region: AddressRange,
        count: int,
        stride_table: StrideTable,
        distance_histogram: ReuseHistogram,
    ):
        self.start_address = start_address
        self.region = region
        self.count = count
        self.stride_table = stride_table
        self.distance_histogram = distance_histogram

    @classmethod
    def fit(
        cls,
        addresses: Sequence[int],
        region: AddressRange,
        max_history: int = MAX_STRIDE_HISTORY,
        stack_rows: int = STACK_DISTANCE_ROWS,
    ) -> "STMAddressModel":
        if not addresses:
            raise ValueError("cannot fit an STM address model to zero addresses")
        strides = [b - a for a, b in zip(addresses, addresses[1:])]
        histogram = ReuseHistogram.fit(stack_distances(list(addresses))).clamped(stack_rows)
        return cls(
            addresses[0],
            region,
            len(addresses),
            StrideTable.fit(strides, max_history),
            histogram,
        )

    def generate(self, rng: random.Random, strict: bool = True) -> List[int]:
        # The stride table already consumes counts, so `strict` has no
        # extra effect here; the argument is accepted for interface parity.
        # A fresh table over the fitted rows consumes its own copies of
        # them, so every call with the same seed gives the same stream.
        table = StrideTable(
            self.stride_table.rows,
            self.stride_table.global_counts,
            self.stride_table.max_history,
        )
        sample_distance = self.distance_histogram.sample
        next_stride = table.next_stride
        region = self.region
        address = self.start_address
        addresses = [address]
        lru: List[int] = [address]  # unique addresses, most recent first
        history: List[int] = []
        for _ in range(self.count - 1):
            distance = sample_distance(rng)
            if distance != COLD and distance < len(lru) and len(lru) > 1:
                address = lru.pop(distance)
            else:
                stride = next_stride(history, rng)
                history.append(stride)
                address = wrap_address(address + stride, region)
                if address in lru:
                    lru.remove(address)
            addresses.append(address)
            lru.insert(0, address)
            del lru[STACK_DISTANCE_ROWS:]
        return addresses

    def to_dict(self) -> dict:
        return {
            "type": self.MODEL_TYPE,
            "start_address": self.start_address,
            "region": [self.region.start, self.region.end],
            "count": self.count,
            "stride_table": self.stride_table.to_dict(),
            "distance_histogram": self.distance_histogram.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "STMAddressModel":
        return cls(
            data["start_address"],
            AddressRange(*data["region"]),
            data["count"],
            StrideTable.from_dict(data["stride_table"]),
            ReuseHistogram.from_dict(data["distance_histogram"]),
        )


class STMOperationModel(OperationModel):
    """Single-probability operation model with exact read/write counts.

    Generation draws without replacement from the pool of profiled reads
    and writes (a hypergeometric shuffle): the marginal probability of a
    read at every step equals the profiled read fraction, but there is no
    order memory — reproducing STM's behaviour in the paper's Fig. 10/11
    analysis.
    """

    MODEL_TYPE = "stm"

    def __init__(self, read_count: int, write_count: int):
        if read_count < 0 or write_count < 0:
            raise ValueError("operation counts must be non-negative")
        self.read_count = read_count
        self.write_count = write_count

    @classmethod
    def fit(cls, operations: Sequence[Operation]) -> "STMOperationModel":
        reads = sum(1 for op in operations if op is Operation.READ)
        return cls(reads, len(operations) - reads)

    @property
    def read_probability(self) -> float:
        total = self.read_count + self.write_count
        return self.read_count / total if total else 0.0

    def generate(self, rng: random.Random, strict: bool = True) -> List[Operation]:
        reads, writes = self.read_count, self.write_count
        operations: List[Operation] = []
        if strict:
            while reads + writes > 0:
                if rng.random() < reads / (reads + writes):
                    operations.append(Operation.READ)
                    reads -= 1
                else:
                    operations.append(Operation.WRITE)
                    writes -= 1
        else:
            probability = self.read_probability
            for _ in range(reads + writes):
                operations.append(
                    Operation.READ if rng.random() < probability else Operation.WRITE
                )
        return operations

    def to_dict(self) -> dict:
        return {
            "type": self.MODEL_TYPE,
            "read_count": self.read_count,
            "write_count": self.write_count,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "STMOperationModel":
        return cls(data["read_count"], data["write_count"])


def _leaf_with(
    requests: Sequence[MemoryRequest],
    region: AddressRange,
    stm_address: bool,
    stm_operation: bool,
) -> LeafModel:
    from ..core.leaf import McCAddressModel, McCOperationModel

    requests = list(requests)
    times = [r.timestamp for r in requests]
    deltas = [b - a for a, b in zip(times, times[1:])]
    addresses = [r.address for r in requests]
    operations = [r.operation for r in requests]
    return LeafModel(
        start_time=times[0],
        count=len(requests),
        region=region,
        delta_time_model=McCModel.fit(deltas),
        size_model=McCModel.fit([r.size for r in requests]),
        address_model=(
            STMAddressModel.fit(addresses, region)
            if stm_address
            else McCAddressModel.fit(addresses, region)
        ),
        operation_model=(
            STMOperationModel.fit(operations)
            if stm_operation
            else McCOperationModel.fit(operations)
        ),
    )


def stm_leaf_factory(
    requests: Sequence[MemoryRequest], region: AddressRange
) -> LeafModel:
    """Leaf factory for ``2L-TS (STM)``: STM address/operation, McC time/size."""
    return _leaf_with(requests, region, stm_address=True, stm_operation=True)


def stm_address_leaf_factory(
    requests: Sequence[MemoryRequest], region: AddressRange
) -> LeafModel:
    """Hybrid: STM addresses, McC operations — attributes error to the
    address feature in the McC-vs-STM comparison."""
    return _leaf_with(requests, region, stm_address=True, stm_operation=False)


def stm_operation_leaf_factory(
    requests: Sequence[MemoryRequest], region: AddressRange
) -> LeafModel:
    """Hybrid: McC addresses, STM's single-probability operations —
    attributes error to the operation feature (the paper's Fig. 10/11
    explanation)."""
    return _leaf_with(requests, region, stm_address=False, stm_operation=True)


register_address_model(STMAddressModel.MODEL_TYPE, STMAddressModel.from_dict)
register_operation_model(STMOperationModel.MODEL_TYPE, STMOperationModel.from_dict)
