"""Request synthesis: statistical profile -> synthetic request stream.

Every leaf model generates a *partial order* of requests; a priority
queue sorted by timestamp merges them into the total order (paper
Sec. III-C, Fig. 5). Bursts are recreated naturally: leaves with similar
start times overlap in the queue.

Simulator feedback (Sec. III-C "Simulator Feedback"): when the consumer
cannot accept a request due to backpressure, the accumulated delay is
added to the timestamps of everything still in the queue. Use
:class:`FeedbackSynthesizer` for that tightly-coupled mode (Fig. 1,
Option B); :func:`synthesize` produces a plain synthetic trace
(Option A).
"""

from __future__ import annotations

import heapq
import random
from typing import Iterator, List, Optional, Union

from .. import obs
from .profile import Profile
from .request import MemoryRequest
from .trace import Trace


def _make_rng(seed_or_rng: Union[int, random.Random, None]) -> random.Random:
    if isinstance(seed_or_rng, random.Random):
        return seed_or_rng
    return random.Random(0 if seed_or_rng is None else seed_or_rng)


def synthesize_stream(
    profile: Profile,
    seed: Union[int, random.Random, None] = 0,
    strict: bool = True,
) -> Iterator[MemoryRequest]:
    """Yield synthetic requests in timestamp order (priority-queue merge).

    Ties between leaves are broken by leaf index so output is
    deterministic for a given seed.
    """
    rng = _make_rng(seed)
    registry = obs.active()
    emitted = registry.counter("synthesis.requests_emitted") if registry else None
    heap: List[tuple] = []
    streams = []
    for leaf_index, leaf in enumerate(profile):
        generated = leaf.generate(rng, strict=strict)
        stream = iter(generated)
        streams.append(stream)
        first = next(stream, None)
        if first is not None:
            heapq.heappush(heap, (first.timestamp, leaf_index, first))
    if registry is not None:
        registry.counter("synthesis.streams").inc()
        registry.counter("synthesis.leaves").inc(len(streams))
    while heap:
        _, leaf_index, request = heapq.heappop(heap)
        if emitted is not None:
            emitted.inc()
        yield request
        nxt = next(streams[leaf_index], None)
        if nxt is not None:
            heapq.heappush(heap, (nxt.timestamp, leaf_index, nxt))


def synthesize(
    profile: Profile,
    seed: Union[int, random.Random, None] = 0,
    strict: bool = True,
) -> Trace:
    """Synthesize a complete trace from a profile (Fig. 1, Option A)."""
    return Trace(synthesize_stream(profile, seed=seed, strict=strict))


class FeedbackSynthesizer:
    """Coupled synthesis with backpressure feedback (Fig. 1, Option B).

    The simulator pulls requests one at a time. When it could not inject
    the previous request on time, it reports the extra latency via
    :meth:`report_backpressure`; the accumulated delay is added to the
    timestamps of all requests still in the queue, letting synthesis
    adapt to contention in the interconnect and memory hierarchy.
    """

    def __init__(
        self,
        profile: Profile,
        seed: Union[int, random.Random, None] = 0,
        strict: bool = True,
    ):
        self._stream = synthesize_stream(profile, seed=seed, strict=strict)
        self._accumulated_delay = 0
        self._exhausted = False
        self._obs = obs.active()

    @property
    def accumulated_delay(self) -> int:
        return self._accumulated_delay

    def report_backpressure(self, delay: int) -> None:
        """Accumulate ``delay`` cycles of backpressure from the simulator."""
        if delay < 0:
            raise ValueError(f"backpressure delay must be non-negative, got {delay}")
        self._accumulated_delay += delay
        registry = self._obs
        if registry is not None and delay:
            registry.counter("synthesis.backpressure_events").inc()
            registry.counter("synthesis.backpressure_delay_cycles").inc(delay)
            registry.gauge("synthesis.accumulated_delay_cycles").set(self._accumulated_delay)

    def next_request(self) -> Optional[MemoryRequest]:
        """The next request with backpressure delay applied, or ``None``."""
        if self._exhausted:
            return None
        request = next(self._stream, None)
        if request is None:
            self._exhausted = True
            return None
        if self._accumulated_delay:
            request = MemoryRequest(
                request.timestamp + self._accumulated_delay,
                request.address,
                request.operation,
                request.size,
            )
        return request

    def __iter__(self) -> Iterator[MemoryRequest]:
        while True:
            request = self.next_request()
            if request is None:
                return
            yield request


class _DecrementalWeights:
    """Weighted index sampling with O(log n) decrements (Fenwick tree).

    Draw-for-draw compatible with ``rng.choices(range(n), weights)``: one
    ``rng.random()`` call per choice, resolved with the same
    insertion-point semantics over the exact integer cumulative weights
    (comparisons pit the float threshold against exact integer prefix
    sums, so no float accumulation error can flip a boundary). Replaces
    rebuilding the full weight list on every draw.
    """

    __slots__ = ("_tree", "_size", "_top", "_total")

    def __init__(self, weights: List[int]):
        size = len(weights)
        tree = [0] * (size + 1)
        for index, weight in enumerate(weights, start=1):
            tree[index] += weight
            parent = index + (index & -index)
            if parent <= size:
                tree[parent] += tree[index]
        self._tree = tree
        self._size = size
        top = 1
        while (top << 1) <= size:
            top <<= 1
        self._top = top
        self._total = sum(weights)

    @property
    def total(self) -> int:
        return self._total

    def choose(self, rng: random.Random) -> int:
        """Sample an index proportionally to the current weights."""
        # random.choices picks the insertion point of random()*total in
        # the cumulative weights, clamped to the last index.
        threshold = rng.random() * self._total
        tree = self._tree
        position = 0
        prefix = 0
        bit = self._top
        while bit:
            probe = position + bit
            if probe <= self._size and prefix + tree[probe] <= threshold:
                position = probe
                prefix += tree[probe]
            bit >>= 1
        return min(position, self._size - 1)

    def decrement(self, index: int) -> None:
        """Subtract 1 from ``weights[index]``."""
        self._total -= 1
        position = index + 1
        tree = self._tree
        while position <= self._size:
            tree[position] -= 1
            position += position & -position


def synthesize_transition_based(
    profile: Profile,
    seed: Union[int, random.Random, None] = 0,
    strict: bool = True,
) -> Trace:
    """Ablation: interleave leaves with a sampled transition process.

    The paper reports that modeling transitions *between* leaf models
    (instead of using start times + a priority queue) "leads to random
    behaviour". This injector reproduces that alternative: at each step
    the next leaf is sampled proportionally to its remaining request
    count, and timestamps are reassigned cumulatively from the chosen
    leaf's delta times. Kept for the ablation benchmark.
    """
    rng = _make_rng(seed)
    pending: List[List[MemoryRequest]] = [leaf.generate(rng, strict=strict) for leaf in profile]
    positions = [0] * len(pending)
    requests: List[MemoryRequest] = []
    clock = min((leaf.start_time for leaf in profile), default=0)
    weights = _DecrementalWeights([len(batch) for batch in pending])
    while weights.total:
        index = weights.choose(rng)
        batch, position = pending[index], positions[index]
        request = batch[position]
        if position > 0:
            clock += max(0, request.timestamp - batch[position - 1].timestamp)
        requests.append(MemoryRequest(clock, request.address, request.operation, request.size))
        positions[index] += 1
        weights.decrement(index)
    return Trace(requests)
