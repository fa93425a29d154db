"""Workload characterization: the quantities behind Table II and Figs. 2-3.

Summarizes a trace the way the paper characterizes its proprietary
inputs: volume, read/write mix, footprint, request-size mix, burstiness
and stride regularity. Used by ``repro.tools.trace characterize`` and by
tests that pin each generator's personality.

:func:`characterize` accepts either trace backend
(:class:`~repro.core.trace.Trace` or
:class:`~repro.core.columnar.ColumnarTrace`) and never materializes
per-request objects for columnar input. When numpy is available the
heavy reductions run vectorized; the stdlib path is kept **bit-identical**
by design:

* every float statistic is derived from *exact integer* sufficient
  statistics (sums, sums of squares, unique counts) followed by the same
  sequence of float operations in both paths — burstiness is the exact
  identity ``(n*Σg² - (Σg)²) / (Σg)²`` with a single correctly-rounded
  division;
* stride entropy and the dominant stride iterate unique strides in
  ascending stride order in both paths (``np.unique`` is sorted; the
  stdlib path sorts its ``Counter``), with ties on the dominant count
  resolved to the smallest stride;
* the size histogram is keyed in ascending size order in both paths.

Degenerate-case convention: a trace whose requests all share one
timestamp has ``duration_cycles == 0`` and therefore **no measurable
request rate** — :attr:`WorkloadCharacter.mean_request_rate` reports
``0.0`` (not the request count) and :func:`format_character` renders the
rate as ``n/a``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple, Union

from ..core.columnar import ColumnarTrace, as_columnar, numpy_or_none
from ..core.trace import Trace

#: Largest magnitude a vectorized int64 reduction may reach before the
#: exact-integer paths fall back to Python arbitrary precision.
_INT64_MAX = 2**63 - 1


@dataclass
class WorkloadCharacter:
    """A compact numerical fingerprint of a trace."""

    requests: int
    read_fraction: float
    total_bytes: int
    duration_cycles: int
    footprint_bytes: int  # unique 64B blocks touched * 64
    size_histogram: Dict[int, int] = field(default_factory=dict)
    burstiness: float = 0.0  # CoV^2 of inter-arrival times (1 = Poisson)
    stride_entropy_bits: float = 0.0
    dominant_stride: int = 0
    dominant_stride_fraction: float = 0.0
    region_count_4k: int = 0  # distinct 4KB regions touched

    @property
    def mean_request_rate(self) -> float:
        """Requests per kilocycle.

        Degenerate convention: with ``duration_cycles == 0`` (a
        single-timestamp trace) there is no time base to divide by, so
        the rate is reported as ``0.0``; :func:`format_character`
        renders it as ``n/a`` rather than a number.
        """
        if not self.duration_cycles:
            return 0.0
        return self.requests / self.duration_cycles * 1000.0


def _burstiness(gap_count: int, gap_sum: int, gap_sq_sum: int) -> float:
    """CoV² of inter-arrival gaps from exact integer sufficient stats.

    ``variance/mean² == (n*Σg² - (Σg)²) / (Σg)²`` exactly; the single
    float division at the end is correctly rounded, so any two callers
    passing the same integers get the same bits.
    """
    if gap_count <= 0 or gap_sum <= 0:
        return 0.0
    return (gap_count * gap_sq_sum - gap_sum * gap_sum) / (gap_sum * gap_sum)


def _stride_stats(
    pairs: Sequence[Tuple[int, int]], total: int
) -> Tuple[float, int, float]:
    """Entropy (bits), dominant stride and its fraction.

    ``pairs`` must be (stride, count) in ascending stride order — both
    backends canonicalize to that order, so the float accumulation below
    runs in an identical sequence. Dominant-count ties resolve to the
    smallest stride (the first seen in ascending order).
    """
    if not total:
        return 0.0, 0, 0.0
    entropy = 0.0
    dominant_stride, dominant_count = 0, 0
    for stride, count in pairs:
        probability = count / total
        entropy -= probability * math.log2(probability)
        if count > dominant_count:
            dominant_stride, dominant_count = stride, count
    return entropy, dominant_stride, dominant_count / total


def _columns_as_lists(trace: Union[Trace, ColumnarTrace]):
    """(timestamps, addresses, sizes, ops) as plain Python-int lists."""
    if isinstance(trace, ColumnarTrace):
        lists = trace.to_lists()
        return lists["timestamps"], lists["addresses"], lists["sizes"], lists["ops"]
    timestamps: List[int] = []
    addresses: List[int] = []
    sizes: List[int] = []
    ops: List[int] = []
    for request in trace:
        timestamps.append(request.timestamp)
        addresses.append(request.address)
        sizes.append(request.size)
        ops.append(int(request.operation))
    return timestamps, addresses, sizes, ops


def _characterize_reference(trace: Union[Trace, ColumnarTrace]) -> WorkloadCharacter:
    """The stdlib path: exact integer reductions, canonical orderings."""
    timestamps, addresses, sizes, ops = _columns_as_lists(trace)
    requests = len(timestamps)

    gaps = [b - a for a, b in zip(timestamps, timestamps[1:])]
    burstiness = _burstiness(len(gaps), sum(gaps), sum(g * g for g in gaps))

    stride_pairs = sorted(Counter(b - a for a, b in zip(addresses, addresses[1:])).items())
    entropy, dominant_stride, dominant_fraction = _stride_stats(
        stride_pairs, requests - 1
    )

    return WorkloadCharacter(
        requests=requests,
        read_fraction=(requests - sum(ops)) / requests,
        total_bytes=sum(sizes),
        duration_cycles=max(timestamps) - min(timestamps),
        footprint_bytes=len({address // 64 for address in addresses}) * 64,
        size_histogram=dict(sorted(Counter(sizes).items())),
        burstiness=burstiness,
        stride_entropy_bits=entropy,
        dominant_stride=dominant_stride,
        dominant_stride_fraction=dominant_fraction,
        region_count_4k=len({address // 4096 for address in addresses}),
    )


def _exact_diff_sums(np, diffs) -> Tuple[int, int]:
    """(Σd, Σd²) of an int64 diff column as exact Python ints.

    Vectorized when the conservative magnitude bound ``n*max|d|`` /
    ``n*max|d|²`` fits int64; otherwise falls back to Python-int
    accumulation (arbitrary precision) so the result is always exact.
    """
    count = len(diffs)
    if not count:
        return 0, 0
    max_abs = int(np.abs(diffs).max())
    if count * max_abs <= _INT64_MAX and count * max_abs * max_abs <= _INT64_MAX:
        return int(diffs.sum()), int((diffs * diffs).sum())
    values = diffs.tolist()
    return sum(values), sum(value * value for value in values)


def _characterize_vectorized(np, columns: ColumnarTrace):
    """The numpy path; returns ``None`` when int64 casts would overflow."""
    timestamps = columns.timestamps
    addresses = columns.addresses
    sizes = columns.sizes
    requests = len(columns)
    if int(timestamps.max()) > _INT64_MAX or int(addresses.max()) > _INT64_MAX:
        return None  # diff columns would not fit int64: take the exact path
    max_size = int(sizes.max())
    if requests * max_size > 2**64 - 1:
        return None  # byte total could overflow the uint64 accumulator

    gaps = np.diff(timestamps.astype(np.int64))
    gap_sum, gap_sq_sum = _exact_diff_sums(np, gaps)
    burstiness = _burstiness(len(gaps), gap_sum, gap_sq_sum)

    strides = np.diff(addresses.astype(np.int64))
    if len(strides):
        unique_strides, stride_counts = np.unique(strides, return_counts=True)
        stride_pairs = list(zip(unique_strides.tolist(), stride_counts.tolist()))
    else:
        stride_pairs = []
    entropy, dominant_stride, dominant_fraction = _stride_stats(
        stride_pairs, requests - 1
    )

    unique_sizes, size_counts = np.unique(sizes, return_counts=True)

    return WorkloadCharacter(
        requests=requests,
        read_fraction=(requests - int(columns.ops.sum())) / requests,
        total_bytes=int(np.sum(sizes, dtype=np.uint64)),
        duration_cycles=int(timestamps.max()) - int(timestamps.min()),
        footprint_bytes=int(len(np.unique(addresses // 64))) * 64,
        size_histogram={
            int(size): int(count)
            for size, count in zip(unique_sizes.tolist(), size_counts.tolist())
        },
        burstiness=burstiness,
        stride_entropy_bits=entropy,
        dominant_stride=int(dominant_stride),
        dominant_stride_fraction=dominant_fraction,
        region_count_4k=int(len(np.unique(addresses // 4096))),
    )


def characterize(trace: Union[Trace, ColumnarTrace]) -> WorkloadCharacter:
    """Compute the fingerprint of a trace (either backend, same bits)."""
    if not len(trace):
        return WorkloadCharacter(0, 0.0, 0, 0, 0)
    np = numpy_or_none()
    if np is not None:
        result = _characterize_vectorized(np, as_columnar(trace))
        if result is not None:
            return result
    return _characterize_reference(trace)


def format_character(character: WorkloadCharacter) -> str:
    """Human-readable rendering, mirroring the Table II style."""
    sizes = ", ".join(
        f"{size}B:{count}" for size, count in sorted(character.size_histogram.items())
    )
    rate = (
        f"{character.mean_request_rate:.2f} per kilocycle"
        if character.duration_cycles
        else "n/a (zero-cycle duration)"
    )
    lines = [
        f"requests:          {character.requests:,}",
        f"read fraction:     {character.read_fraction:.1%}",
        f"bytes:             {character.total_bytes:,}",
        f"duration:          {character.duration_cycles:,} cycles",
        f"request rate:      {rate}",
        f"footprint:         {character.footprint_bytes:,} bytes "
        f"({character.region_count_4k:,} x 4KB regions)",
        f"sizes:             {sizes}",
        f"burstiness (CoV²): {character.burstiness:,.1f}",
        f"stride entropy:    {character.stride_entropy_bits:.2f} bits "
        f"(dominant {character.dominant_stride} at "
        f"{character.dominant_stride_fraction:.1%})",
    ]
    return "\n".join(lines)
