"""The four benchmark workloads, as lists of per-item figure pipelines.

Every workload drives public ``repro`` entry points only, and looks each
one up on its module at call time, so the span tracer in ``spans.py``
sees every call. An *item* is one independent pipeline (one Table II
workload, one interval of it, or one SPEC-like benchmark); it returns the
simulator outputs that are digested and pinned by ``goldens.json``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.cache.cache import CacheConfig
from repro.core import profiler
from repro.core.hierarchy import two_level_ts
from repro.dram.chargecache import ChargeCacheConfig
from repro.dram.config import MemoryConfig
from repro.dram.stats import MemorySystemStats
from repro.eval import comparison, experiments
from repro.eval.metrics import geometric_mean, geomean_percent_error, percent_error
from repro.sim import cache_driver, driver
from repro.sim.cache_driver import CacheRunResult
from repro.workloads.registry import TABLE_II_WORKLOADS


class Scale(NamedTuple):
    """How much work one workload run does."""

    table2_requests: int = 4000  # requests per Table II baseline trace
    spec_requests: int = 6000  # requests per SPEC-like baseline trace
    items: Optional[int] = None  # first N workloads/benchmarks; None = all


DEFAULT_SCALE = Scale()
SWEEP_INTERVALS = (100_000, 500_000, 1_000_000)
# Fig. 15's six benchmarks plus the smallest (hmmer) and the largest,
# pointer-chasing (mcf) working sets, so footprints span the 16-32KB L1.
CACHE_BENCHMARKS = ("gobmk", "h264ref", "hmmer", "libquantum", "mcf", "milc", "soplex", "zeusmp")
CACHE_CONFIGS = {"16KB 2-way": CacheConfig(16 * 1024, 2), "32KB 4-way": CacheConfig(32 * 1024, 4)}

Item = Tuple[str, Callable[[], Tuple[dict, int]]]


def _table2(scale: Scale) -> List[str]:
    return TABLE_II_WORKLOADS[: scale.items]


def _dram_item(name: str, seed: int, scale: Scale, interval: int, include_stm: bool):
    def run() -> Tuple[dict, int]:
        result = comparison.dram_comparison(
            name, scale.table2_requests, seed=seed, interval=interval, include_stm=include_stm
        )
        outputs = {"baseline": result.baseline, "mcc": result.mcc}
        if include_stm:
            outputs["stm"] = result.stm
        return outputs, sum(stats.latency_count for stats in outputs.values())

    return run


def dram_validation(seed: int, scale: Scale) -> List[Item]:
    interval = comparison.DEFAULT_INTERVAL
    return [(name, _dram_item(name, seed, scale, interval, True)) for name in _table2(scale)]


def interval_sweep(seed: int, scale: Scale) -> List[Item]:
    return [
        (f"{name}@{interval}", _dram_item(name, seed, scale, interval, False))
        for interval in SWEEP_INTERVALS
        for name in _table2(scale)
    ]


def cache_validation(seed: int, scale: Scale) -> List[Item]:
    def item(benchmark: str):
        def run() -> Tuple[dict, int]:
            traces = experiments.spec_synthetics(benchmark, scale.spec_requests, seed=seed)
            outputs: Dict[str, dict] = {}
            requests = 0
            for label, l1_config in CACHE_CONFIGS.items():
                outputs[label] = {}
                for series in experiments.SEC5_SERIES:
                    outputs[label][series] = cache_driver.run_cache_trace(
                        traces[series], l1_config
                    )
                    requests += len(traces[series])
            return outputs, requests

        return run

    return [(benchmark, item(benchmark)) for benchmark in CACHE_BENCHMARKS[: scale.items]]


def scalar_replay(seed: int, scale: Scale) -> List[Item]:
    def item(name: str):
        def run() -> Tuple[dict, int]:
            trace = comparison.baseline_trace(name, scale.table2_requests, seed)
            profile = profiler.build_profile(trace, two_level_ts(), name=name)
            outputs = {
                "feedback": driver.simulate_profile(profile, seed=seed + 1),
                "chargecache": driver.simulate_trace(
                    trace, MemoryConfig(charge_cache=ChargeCacheConfig())
                ),
            }
            return outputs, sum(stats.latency_count for stats in outputs.values())

        return run

    return [(name, item(name)) for name in _table2(scale)]


# -- model error: the paper's accuracy number for each figure ----------------


def _fig6_error(outputs: Dict[str, dict]) -> float:
    pairs = []
    for item in outputs.values():
        pairs.append((item["mcc"].read_bursts, item["baseline"].read_bursts))
        pairs.append((item["mcc"].write_bursts, item["baseline"].write_bursts))
    return geomean_percent_error(pairs)


def _fig13_error(outputs: Dict[str, dict]) -> float:
    errors = [
        max(percent_error(item["mcc"].avg_access_latency, item["baseline"].avg_access_latency), 1e-3)
        for item in outputs.values()
    ]
    return geometric_mean(errors, floor=1e-3)


def _fig14_error(outputs: Dict[str, dict]) -> float:
    return geomean_percent_error(
        (per_config["dynamic"].l1_miss_rate, per_config["baseline"].l1_miss_rate)
        for item in outputs.values()
        for per_config in item.values()
    )


class Workload(NamedTuple):
    items: Callable[[int, Scale], List[Item]]
    model_error: Optional[Callable[[Dict[str, dict]], float]]
    # The figure this workload times, regenerated from the warm
    # in-process caches (which are keyed by seed 0) for its digest.
    figure: Optional[Tuple[str, Callable[[Scale], object]]]


WORKLOADS: Dict[str, Workload] = {
    "dram_validation": Workload(
        dram_validation,
        _fig6_error,
        ("figure_6", lambda scale: experiments.figure_6(scale.table2_requests)),
    ),
    "interval_sweep": Workload(
        interval_sweep,
        _fig13_error,
        (
            "figure_13",
            lambda scale: experiments.figure_13(scale.table2_requests, intervals=SWEEP_INTERVALS),
        ),
    ),
    "cache_validation": Workload(
        cache_validation,
        _fig14_error,
        (
            "figure_14",
            lambda scale: experiments.figure_14(scale.spec_requests, benchmarks=CACHE_BENCHMARKS),
        ),
    ),
    "scalar_replay": Workload(
        scalar_replay,
        None,
        None,
    ),
}


# -- canonical digests and exact sums -----------------------------------------


def _plain(value):
    """A JSON-ready form of simulator outputs with a fixed key order."""
    if dataclasses.is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return [[_plain(key), _plain(val)] for key, val in sorted(value.items())]
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    if isinstance(value, (list, tuple)):
        return [_plain(val) for val in value]
    return value


def digest(value) -> str:
    """sha256 of the canonical JSON of ``value``."""
    text = json.dumps(_plain(value), separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(text.encode()).hexdigest()


def _leaves(value):
    if isinstance(value, dict):
        for val in value.values():
            yield from _leaves(val)
    else:
        yield value


def exact_sums(outputs: Dict[str, dict]) -> Dict[str, int]:
    """Simulated-event totals that a speed-only change must leave equal."""
    sums = {"dram.bursts": 0, "dram.row_hits": 0, "cache.l1_misses": 0}
    for item in outputs.values():
        for leaf in _leaves(item):
            if isinstance(leaf, MemorySystemStats):
                sums["dram.bursts"] += leaf.read_bursts + leaf.write_bursts
                sums["dram.row_hits"] += leaf.read_row_hits + leaf.write_row_hits
            elif isinstance(leaf, CacheRunResult):
                sums["cache.l1_misses"] += leaf.l1.misses
    return sums
