"""Experiment runners — one per table/figure of the paper's evaluation.

Each ``figure_*`` / ``table_*`` function regenerates the data behind the
corresponding exhibit and returns it as plain dicts/lists; the
``benchmarks/`` suite prints them as the paper's rows/series. Scale is
parameterized: benches default to reduced request counts (same shape,
minutes not hours); pass larger ``num_requests`` to approach paper scale.
"""

from __future__ import annotations

import tempfile
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..baselines.hrd import HRDModel
from ..cache.cache import CacheConfig
from ..core.hierarchy import two_level_rs, two_level_ts
from ..core.profiler import build_profile
from ..core.serialization import profile_size_bytes
from ..core.spatial import partition_dynamic, partition_fixed
from ..core.synthesis import synthesize
from ..core.trace import Trace
from ..core.tracefile import save_trace
from ..sim.cache_driver import run_cache_trace
from ..workloads.registry import TABLE_II_DEVICES, make_generator
from ..workloads.spec import FIG15_BENCHMARKS, SPEC_BENCHMARKS
from .comparison import (
    DEFAULT_REQUESTS,
    baseline_trace,
    dram_comparison,
)
from .metrics import geometric_mean, geomean_percent_error, percent_error

DEVICES = ("CPU", "DPU", "GPU", "VPU")


# ---------------------------------------------------------------------------
# Sec. III motivation: Figs. 2-3 and Table I
# ---------------------------------------------------------------------------


def figure_2(num_requests: int = DEFAULT_REQUESTS, workload: str = "hevc1") -> List[dict]:
    """Requests inside the busiest 4KB region of the first N HEVC1 requests.

    Returns one record per request: arrival order within the region, byte
    offset from the region base, size and operation — the data behind the
    paper's Fig. 2 scatter.
    """
    trace = baseline_trace(workload, num_requests)
    blocks = partition_fixed(trace.requests, 4096)
    busiest = max(blocks, key=len)
    records = []
    for order, request in enumerate(busiest.requests):
        records.append(
            {
                "order": order,
                "offset": request.address - busiest.region.start,
                "size": request.size,
                "operation": str(request.operation),
            }
        )
    return records


def figure_3(
    num_requests: int = DEFAULT_REQUESTS,
    workload: str = "hevc1",
    bin_cycles: int = 500_000,
) -> List[Tuple[int, int]]:
    """Requests per time bin (the burst/idle profile of Fig. 3)."""
    trace = baseline_trace(workload, num_requests)
    counts: Counter = Counter()
    origin = trace.start_time
    for request in trace:
        counts[(request.timestamp - origin) // bin_cycles] += 1
    return sorted(counts.items())


def table_1(num_requests: int = DEFAULT_REQUESTS, workload: str = "hevc1") -> dict:
    """Stride/size sequences of a reused dynamic partition, 1 vs 2 temporal
    partitions — the paper's Table I illustration of hierarchical
    partitioning exposing constant patterns."""
    trace = baseline_trace(workload, num_requests)
    partitions = partition_dynamic(trace.requests)
    # Pick a partition that, like the paper's F, is reused over time.
    candidates = [p for p in partitions if 8 <= len(p) <= 32]
    chosen = max(candidates or partitions, key=lambda p: len(p))
    addresses = [r.address for r in chosen.requests]
    sizes = [r.size for r in chosen.requests]
    strides = [None] + [b - a for a, b in zip(addresses, addresses[1:])]
    half = len(chosen.requests) // 2
    return {
        "partition_size": len(chosen.requests),
        "region": (chosen.region.start, chosen.region.end),
        "one_partition": list(zip(strides, sizes)),
        "two_partitions": [
            list(zip(strides[:half], sizes[:half])),
            [(None, sizes[half])] + list(zip(strides[half + 1 :], sizes[half + 1 :])),
        ],
    }


# ---------------------------------------------------------------------------
# Sec. IV: DRAM validation (Figs. 6-13)
# ---------------------------------------------------------------------------


def _device_runs(num_requests: int, interval: int = 500_000, include_stm: bool = True):
    runs = {}
    for device, names in TABLE_II_DEVICES.items():
        runs[device] = [
            dram_comparison(name, num_requests, interval=interval, include_stm=include_stm)
            for name in names
        ]
    return runs


def figure_6(num_requests: int = DEFAULT_REQUESTS) -> Dict[str, dict]:
    """Average (geomean) % error per device for DRAM read/write bursts."""
    result = {}
    for device, runs in _device_runs(num_requests).items():
        result[device] = {
            "read_bursts": {
                "mcc": geomean_percent_error(
                    (run.mcc.read_bursts, run.baseline.read_bursts) for run in runs
                ),
                "stm": geomean_percent_error(
                    (run.stm.read_bursts, run.baseline.read_bursts) for run in runs
                ),
            },
            "write_bursts": {
                "mcc": geomean_percent_error(
                    (run.mcc.write_bursts, run.baseline.write_bursts) for run in runs
                ),
                "stm": geomean_percent_error(
                    (run.stm.write_bursts, run.baseline.write_bursts) for run in runs
                ),
            },
        }
    return result


def figure_7(num_requests: int = DEFAULT_REQUESTS) -> Dict[str, dict]:
    """Average read/write queue length per device for all three series."""
    result = {}
    for device, runs in _device_runs(num_requests).items():
        result[device] = {
            "read_queue": {
                "baseline": geometric_mean(
                    [max(r.baseline.avg_read_queue_length, 1e-3) for r in runs], floor=1e-3
                ),
                "mcc": geometric_mean(
                    [max(r.mcc.avg_read_queue_length, 1e-3) for r in runs], floor=1e-3
                ),
                "stm": geometric_mean(
                    [max(r.stm.avg_read_queue_length, 1e-3) for r in runs], floor=1e-3
                ),
            },
            "write_queue": {
                "baseline": geometric_mean(
                    [max(r.baseline.avg_write_queue_length, 1e-3) for r in runs], floor=1e-3
                ),
                "mcc": geometric_mean(
                    [max(r.mcc.avg_write_queue_length, 1e-3) for r in runs], floor=1e-3
                ),
                "stm": geometric_mean(
                    [max(r.stm.avg_write_queue_length, 1e-3) for r in runs], floor=1e-3
                ),
            },
        }
    return result


def figure_8(
    num_requests: int = DEFAULT_REQUESTS, workload: str = "trex1"
) -> Dict[int, Dict[str, Counter]]:
    """Write-queue-length-seen distribution per channel for T-Rex1."""
    run = dram_comparison(workload, num_requests)
    result = {}
    for channel in range(len(run.baseline.channels)):
        result[channel] = {
            "baseline": run.baseline.channels[channel].write_queue_len_seen,
            "mcc": run.mcc.channels[channel].write_queue_len_seen,
            "stm": run.stm.channels[channel].write_queue_len_seen,
        }
    return result


def figure_9(num_requests: int = DEFAULT_REQUESTS) -> Dict[str, dict]:
    """Average (geomean) % error per device for read/write row hits."""
    result = {}
    for device, runs in _device_runs(num_requests).items():
        result[device] = {
            "read_row_hits": {
                "mcc": geomean_percent_error(
                    (run.mcc.read_row_hits, run.baseline.read_row_hits) for run in runs
                ),
                "stm": geomean_percent_error(
                    (run.stm.read_row_hits, run.baseline.read_row_hits) for run in runs
                ),
            },
            "write_row_hits": {
                "mcc": geomean_percent_error(
                    (run.mcc.write_row_hits, run.baseline.write_row_hits) for run in runs
                ),
                "stm": geomean_percent_error(
                    (run.stm.write_row_hits, run.baseline.write_row_hits) for run in runs
                ),
            },
        }
    return result


def figure_10(num_requests: int = DEFAULT_REQUESTS) -> Dict[str, dict]:
    """Row-hit counts for the linear vs tiled DPU frame-buffer traces."""
    result = {}
    for workload in ("fbc-linear1", "fbc-tiled1"):
        run = dram_comparison(workload, num_requests)
        result[workload] = {
            "read_row_hits": {
                "baseline": run.baseline.read_row_hits,
                "mcc": run.mcc.read_row_hits,
                "stm": run.stm.read_row_hits,
            },
            "write_row_hits": {
                "baseline": run.baseline.write_row_hits,
                "mcc": run.mcc.write_row_hits,
                "stm": run.stm.write_row_hits,
            },
        }
    return result


def figure_11(num_requests: int = DEFAULT_REQUESTS) -> Dict[str, dict]:
    """Average reads per read->write turnaround, per memory channel."""
    result = {}
    for workload in ("fbc-linear1", "fbc-tiled1"):
        run = dram_comparison(workload, num_requests)
        per_channel = {}
        for channel in range(len(run.baseline.channels)):
            per_channel[channel] = {
                "baseline": run.baseline.channels[channel].avg_reads_per_turnaround,
                "mcc": run.mcc.channels[channel].avg_reads_per_turnaround,
                "stm": run.stm.channels[channel].avg_reads_per_turnaround,
            }
        result[workload] = per_channel
    return result


def figure_12(
    num_requests: int = DEFAULT_REQUESTS, workload: str = "fbc-linear1"
) -> Dict[str, dict]:
    """Read/write bursts per bank per channel for FBC-Linear1."""
    run = dram_comparison(workload, num_requests)
    result: Dict[str, dict] = {"read": {}, "write": {}}
    banks = sorted(
        set().union(
            *[
                set(c.per_bank_reads) | set(c.per_bank_writes)
                for stats in (run.baseline, run.mcc, run.stm)
                for c in stats.channels
            ]
        )
    )
    for operation in ("read", "write"):
        for channel in range(len(run.baseline.channels)):
            series = {}
            for label, stats in (("baseline", run.baseline), ("mcc", run.mcc), ("stm", run.stm)):
                counts = (
                    stats.channels[channel].per_bank_reads
                    if operation == "read"
                    else stats.channels[channel].per_bank_writes
                )
                series[label] = {bank: counts.get(bank, 0) for bank in banks}
            result[operation][channel] = series
    return result


FIG13_INTERVALS = (100_000, 250_000, 500_000, 750_000, 1_000_000)


def figure_13(
    num_requests: int = DEFAULT_REQUESTS,
    intervals: Sequence[int] = FIG13_INTERVALS,
) -> Dict[str, List[Tuple[int, float]]]:
    """Average-memory-access-latency error vs temporal partition size."""
    result: Dict[str, List[Tuple[int, float]]] = {device: [] for device in DEVICES}
    for interval in intervals:
        for device, names in TABLE_II_DEVICES.items():
            errors = []
            for name in names:
                run = dram_comparison(name, num_requests, interval=interval, include_stm=False)
                errors.append(
                    percent_error(run.mcc.avg_access_latency, run.baseline.avg_access_latency)
                )
            result[device].append(
                (interval, geometric_mean([max(e, 1e-3) for e in errors], floor=1e-3))
            )
    return result


# ---------------------------------------------------------------------------
# Sec. V: cache validation vs HRD (Figs. 14-17)
# ---------------------------------------------------------------------------

_SPEC_SYNTH_CACHE: Dict[Tuple, Dict[str, Trace]] = {}


def _spec_interval(num_requests: int) -> int:
    """Requests per temporal phase for SPEC traces (paper: 100,000)."""
    return min(100_000, max(num_requests // 5, 1_000))


def spec_synthetics(
    benchmark: str, num_requests: int = DEFAULT_REQUESTS, seed: int = 0
) -> Dict[str, Trace]:
    """Baseline + Mocktails(Dynamic) + Mocktails(4KB) + HRD traces."""
    key = (benchmark, num_requests, seed)
    cached = _SPEC_SYNTH_CACHE.get(key)
    registry = obs.active()
    if cached is not None:
        if registry is not None:
            registry.counter("eval.spec.cached").inc()
        return cached

    if registry is not None:
        registry.counter("eval.spec.computed").inc()
        registry.event("job.start", kind="spec", name=benchmark, requests=num_requests)
    trace = make_generator(benchmark, seed=seed).generate(num_requests)
    interval = _spec_interval(num_requests)
    dynamic_profile = build_profile(trace, two_level_rs(interval, "dynamic"), name=benchmark)
    fixed_profile = build_profile(trace, two_level_rs(interval, "fixed"), name=benchmark)
    result = {
        "baseline": trace,
        "dynamic": synthesize(dynamic_profile, seed=seed + 1),
        "fixed4k": synthesize(fixed_profile, seed=seed + 1),
        "hrd": HRDModel.fit(trace).synthesize(seed=seed + 1),
    }
    _SPEC_SYNTH_CACHE[key] = result
    if registry is not None:
        registry.event("job.finish", kind="spec", name=benchmark)
    return result


SEC5_SERIES = ("baseline", "dynamic", "fixed4k", "hrd")


def figure_14(
    num_requests: int = DEFAULT_REQUESTS,
    benchmarks: Optional[Sequence[str]] = None,
) -> Dict[str, dict]:
    """Geomean L1/L2 miss rates for two cache configs, all four series."""
    benchmarks = list(benchmarks) if benchmarks is not None else SPEC_BENCHMARKS
    configs = {
        "16KB 2-way": CacheConfig(16 * 1024, 2),
        "32KB 4-way": CacheConfig(32 * 1024, 4),
    }
    result: Dict[str, dict] = {}
    for label, l1_config in configs.items():
        rates: Dict[str, dict] = {series: {"l1": [], "l2": []} for series in SEC5_SERIES}
        for benchmark in benchmarks:
            traces = spec_synthetics(benchmark, num_requests)
            for series in SEC5_SERIES:
                run = run_cache_trace(traces[series], l1_config)
                rates[series]["l1"].append(max(run.l1_miss_rate, 1e-6))
                rates[series]["l2"].append(max(run.l2_miss_rate, 1e-6))
        result[label] = {
            series: {
                "l1_miss_rate": geometric_mean(rates[series]["l1"], floor=1e-6) * 100,
                "l2_miss_rate": geometric_mean(rates[series]["l2"], floor=1e-6) * 100,
            }
            for series in SEC5_SERIES
        }
    return result


def _associativity_sweep(
    metric: str,
    num_requests: int,
    benchmarks: Sequence[str],
    associativities: Sequence[int],
) -> Dict[str, dict]:
    result: Dict[str, dict] = {}
    for benchmark in benchmarks:
        traces = spec_synthetics(benchmark, num_requests)
        per_assoc: Dict[int, dict] = {}
        for associativity in associativities:
            l1_config = CacheConfig(32 * 1024, associativity)
            values = {}
            for series in ("baseline", "dynamic", "hrd"):
                run = run_cache_trace(traces[series], l1_config)
                if metric == "miss_rate":
                    values[series] = run.l1_miss_rate * 100
                else:
                    values[series] = run.l1.write_backs
            per_assoc[associativity] = values
        result[benchmark] = per_assoc
    return result


def figure_15(
    num_requests: int = DEFAULT_REQUESTS,
    benchmarks: Sequence[str] = tuple(FIG15_BENCHMARKS),
    associativities: Sequence[int] = (2, 4, 8, 16),
) -> Dict[str, dict]:
    """32KB L1 miss rate across associativities for six benchmarks."""
    return _associativity_sweep("miss_rate", num_requests, benchmarks, associativities)


def figure_16(
    num_requests: int = DEFAULT_REQUESTS,
    benchmarks: Sequence[str] = tuple(FIG15_BENCHMARKS),
    associativities: Sequence[int] = (2, 4, 8, 16),
) -> Dict[str, dict]:
    """32KB L1 write-backs across associativities for six benchmarks."""
    return _associativity_sweep("write_backs", num_requests, benchmarks, associativities)


_SPEC_SIZE_CACHE: Dict[Tuple[str, int], dict] = {}


def spec_size_record(benchmark: str, num_requests: int = DEFAULT_REQUESTS) -> dict:
    """On-disk sizes for one benchmark: trace vs dynamic vs 4KB profile."""
    key = (benchmark, num_requests)
    cached = _SPEC_SIZE_CACHE.get(key)
    if cached is not None:
        return cached
    interval = _spec_interval(num_requests)
    trace = make_generator(benchmark).generate(num_requests)
    with tempfile.TemporaryDirectory() as tmp:
        trace_bytes = save_trace(trace, Path(tmp) / f"{benchmark}.mtr.gz")
    dynamic = build_profile(trace, two_level_rs(interval, "dynamic"))
    fixed = build_profile(trace, two_level_rs(interval, "fixed"))
    record = {
        "trace": trace_bytes,
        "dynamic": profile_size_bytes(dynamic),
        "fixed4k": profile_size_bytes(fixed),
    }
    _SPEC_SIZE_CACHE[key] = record
    return record


def figure_17(
    num_requests: int = DEFAULT_REQUESTS,
    benchmarks: Optional[Sequence[str]] = None,
) -> Dict[str, dict]:
    """On-disk sizes: trace vs dynamic-profile vs 4KB-profile (bytes)."""
    benchmarks = list(benchmarks) if benchmarks is not None else SPEC_BENCHMARKS
    return {
        benchmark: spec_size_record(benchmark, num_requests) for benchmark in benchmarks
    }


# ---------------------------------------------------------------------------
# Extension studies (paper Sec. VI)
# ---------------------------------------------------------------------------


def extension_chargecache(num_requests: int = DEFAULT_REQUESTS) -> Dict[str, dict]:
    """ChargeCache benefit per device class, driven by Mocktails profiles."""
    from ..dram.chargecache import ChargeCacheConfig
    from ..dram.config import MemoryConfig
    from ..sim.driver import simulate_trace

    workloads = {"CPU": "crypto1", "DPU": "fbc-linear1", "GPU": "trex1", "VPU": "hevc1"}
    result = {}
    for device, name in workloads.items():
        trace = baseline_trace(name, num_requests)
        synthetic = synthesize(build_profile(trace, two_level_ts()), seed=1)
        plain = simulate_trace(synthetic, MemoryConfig())
        boosted = simulate_trace(
            synthetic, MemoryConfig(charge_cache=ChargeCacheConfig())
        )
        result[device] = {
            "baseline_latency": plain.avg_access_latency,
            "chargecache_latency": boosted.avg_access_latency,
            "saving_percent": (
                (plain.avg_access_latency - boosted.avg_access_latency)
                / plain.avg_access_latency * 100.0
                if plain.avg_access_latency
                else 0.0
            ),
        }
    return result


def extension_soc(num_requests: int = DEFAULT_REQUESTS) -> Dict[str, dict]:
    """Four concurrent device profiles sharing one memory system."""
    from ..sim.multi_device import run_soc

    workloads = {"cpu": "crypto1", "dpu": "fbc-linear1", "gpu": "trex1", "vpu": "hevc1"}
    devices = {
        device: build_profile(baseline_trace(name, num_requests), two_level_ts())
        for device, name in workloads.items()
    }
    outcome = run_soc(devices, seed=2)
    shares = outcome.bandwidth_share()
    return {
        device: {
            "requests": stats.requests,
            "avg_latency": stats.avg_access_latency,
            "bandwidth_share": shares[device],
            "backpressure": stats.backpressure_delay,
        }
        for device, stats in outcome.devices.items()
    }
