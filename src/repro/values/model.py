"""Per-leaf value models riding on the Mocktails hierarchy.

Values are modeled the way Mocktails models every other feature: the
trace is partitioned with a hierarchical configuration, and each leaf
gets an independent model of its *value deltas* (difference between
consecutive values within the leaf). Deltas, not raw values, carry the
value-locality structure (paper Sec. III-B models delta time and stride
the same way).

For privacy, the per-leaf delta histograms are Laplace-noised (ε-DP,
:mod:`repro.values.privacy`) before they are stored; synthesis samples
from the noised histograms. The first value of each leaf is quantized
to ``first_value_quantum`` so exact payloads never enter the profile.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Dict, List, Optional, Sequence

from ..core.hierarchy import HierarchyConfig, build_leaves, two_level_ts
from ..core.trace import Trace
from .privacy import laplace_noise_histogram
from .workloads import VALUE_MASK


class LeafValueModel:
    """ε-DP delta histogram + quantized value range for one leaf.

    Like address synthesis, generated values are wrapped back into the
    leaf's (quantized) observed value range, so sampling deltas i.i.d.
    cannot drift the stream away from the original magnitude class.
    """

    def __init__(
        self,
        start_value: int,
        delta_counts: Counter,
        count: int,
        value_min: int = 0,
        value_max: int = VALUE_MASK,
    ):
        if value_max < value_min:
            raise ValueError("value_max must be >= value_min")
        self.start_value = start_value
        self.delta_counts = delta_counts
        self.count = count
        self.value_min = value_min
        self.value_max = value_max

    @classmethod
    def fit(
        cls,
        values: Sequence[int],
        epsilon: Optional[float],
        rng: random.Random,
        first_value_quantum: int = 16,
    ) -> "LeafValueModel":
        if not values:
            raise ValueError("cannot fit a value model to zero values")
        deltas = Counter(b - a for a, b in zip(values, values[1:]))
        if epsilon is not None:
            deltas = laplace_noise_histogram(deltas, epsilon, rng)
        quantum = first_value_quantum
        start = (values[0] // quantum) * quantum
        value_min = (min(values) // quantum) * quantum
        value_max = ((max(values) // quantum) + 1) * quantum
        return cls(start, deltas, len(values), value_min, value_max)

    def _wrap(self, value: int) -> int:
        span = self.value_max - self.value_min
        if span <= 0:
            return self.value_min & VALUE_MASK
        if self.value_min <= value <= self.value_max:
            return value & VALUE_MASK
        return (self.value_min + ((value - self.value_min) % span)) & VALUE_MASK

    def generate(self, rng: random.Random) -> List[int]:
        values = [self._wrap(self.start_value)]
        if self.delta_counts:
            deltas = sorted(self.delta_counts.keys())
            weights = [self.delta_counts[d] for d in deltas]
            for _ in range(self.count - 1):
                delta = rng.choices(deltas, weights=weights, k=1)[0]
                values.append(self._wrap(values[-1] + delta))
        else:
            values.extend([values[0]] * (self.count - 1))
        return values

    def to_dict(self) -> dict:
        return {
            "start_value": self.start_value,
            "delta_counts": sorted(self.delta_counts.items()),
            "count": self.count,
            "value_min": self.value_min,
            "value_max": self.value_max,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LeafValueModel":
        return cls(
            data["start_value"],
            Counter(dict((int(k), int(v)) for k, v in data["delta_counts"])),
            data["count"],
            data.get("value_min", 0),
            data.get("value_max", VALUE_MASK),
        )


class ValueProfile:
    """One value model per hierarchy leaf, aligned with the leaf order."""

    def __init__(self, leaves: Sequence[LeafValueModel], epsilon: Optional[float]):
        self._leaves = list(leaves)
        self.epsilon = epsilon

    def __len__(self) -> int:
        return len(self._leaves)

    def __iter__(self):
        return iter(self._leaves)

    def __getitem__(self, index: int) -> LeafValueModel:
        return self._leaves[index]

    @property
    def total_values(self) -> int:
        return sum(leaf.count for leaf in self._leaves)

    def generate(self, seed: int = 0) -> List[int]:
        """One value per request, in the per-leaf concatenated order."""
        rng = random.Random(seed)
        values: List[int] = []
        for leaf in self._leaves:
            values.extend(leaf.generate(rng))
        return values

    def to_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "leaves": [leaf.to_dict() for leaf in self._leaves],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ValueProfile":
        return cls(
            [LeafValueModel.from_dict(leaf) for leaf in data["leaves"]],
            data.get("epsilon"),
        )

    def save(self, path) -> int:
        """Write a gzip-compressed value profile; returns bytes written.

        Byte-deterministic (``mtime=0``) and atomic, like every other
        artifact writer in the repo.
        """
        import gzip
        import json

        from ..core.atomic import atomic_write_bytes

        payload = gzip.compress(
            json.dumps(self.to_dict(), separators=(",", ":")).encode("ascii"),
            mtime=0,
        )
        return atomic_write_bytes(path, payload)

    @classmethod
    def load(cls, path) -> "ValueProfile":
        import gzip
        import json
        from pathlib import Path

        payload = gzip.decompress(Path(path).read_bytes())
        return cls.from_dict(json.loads(payload.decode("ascii")))


def synthesize_with_values(
    profile,
    value_profile: ValueProfile,
    seed: int = 0,
    strict: bool = True,
):
    """Synthesize a trace and aligned values from matching profiles.

    Both profiles must come from the same trace and hierarchy config so
    their leaves line up 1:1. Returns ``(trace, values)`` with one value
    per synthetic request, in the merged time order.

    Args:
        profile: A :class:`repro.core.profile.Profile`.
        value_profile: The matching :class:`ValueProfile`.
    """
    import heapq

    from ..core.trace import Trace

    if len(profile) != len(value_profile):
        raise ValueError(
            f"profiles disagree: {len(profile)} request leaves vs "
            f"{len(value_profile)} value leaves"
        )
    request_rng = random.Random(seed)
    heap = []
    streams = []
    for index, (leaf, value_leaf) in enumerate(zip(profile, value_profile)):
        requests = leaf.generate(request_rng, strict=strict)
        values = value_leaf.generate(random.Random((seed << 8) ^ index))
        if len(requests) != len(values):
            raise ValueError("leaf request/value counts disagree")
        stream = iter(zip(requests, values))
        streams.append(stream)
        first = next(stream, None)
        if first is not None:
            heapq.heappush(heap, (first[0].timestamp, index, first))
    ordered_requests = []
    ordered_values = []
    while heap:
        _, index, (request, value) = heapq.heappop(heap)
        ordered_requests.append(request)
        ordered_values.append(value)
        nxt = next(streams[index], None)
        if nxt is not None:
            heapq.heappush(heap, (nxt[0].timestamp, index, nxt))
    return Trace(ordered_requests), ordered_values


def build_value_profile(
    trace: Trace,
    values: Sequence[int],
    config: Optional[HierarchyConfig] = None,
    epsilon: Optional[float] = 1.0,
    seed: int = 0,
) -> ValueProfile:
    """Fit a value profile over the same hierarchy Mocktails uses.

    Args:
        trace: The request trace (time-sorted).
        values: One value per request, aligned with ``trace``.
        config: Hierarchy; defaults to the paper's 2L-TS.
        epsilon: ε for the Laplace mechanism; ``None`` disables noising
            (for ablations only — a real exchange should keep DP on).
        seed: RNG seed for the privacy noise.
    """
    if len(values) != len(trace):
        raise ValueError(
            f"need one value per request: {len(values)} values, {len(trace)} requests"
        )
    if config is None:
        config = two_level_ts()

    # Recover each request's position so leaf values can be looked up.
    index_of: Dict[int, int] = {id(request): i for i, request in enumerate(trace)}
    rng = random.Random(seed)
    leaf_models = []
    for leaf in build_leaves(trace.requests, config):
        leaf_values = [values[index_of[id(request)]] for request in leaf.requests]
        leaf_models.append(LeafValueModel.fit(leaf_values, epsilon, rng))
    return ValueProfile(leaf_models, epsilon)
