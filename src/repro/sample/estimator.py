"""Weighted estimation through the profile → synthesis → replay harness.

Two entry points:

* :func:`build_sampled_profile` — profile only the representative
  intervals of a :class:`~repro.sample.plan.SamplePlan`. Because the
  sampling units *are* the profiler's outer temporal partitions, each
  representative's leaf models (fit via
  :func:`repro.core.profiler.fit_interval_leaves`) are bit-identical to
  the corresponding leaves of the full profile — sampling only skips
  the fitting work for unselected intervals. With ``k >= interval
  count`` the full single-pass build runs instead, so the output is
  byte-identical to the unsampled pipeline.

* :func:`sampling_comparison` — the fidelity report: run the full
  pipeline and the weighted sampled estimate side by side and report
  predicted-vs-full percent error on the paper's Fig. 6 (DRAM
  read/write bursts), Fig. 13 (average access latency) and Fig. 14
  (L1/L2 miss rate) metrics, plus whether the geomean error honours the
  plan's declared ``error_bound_percent``.

The weighted estimate synthesizes and replays each representative
interval's profile in isolation and recombines per-cluster occupancy
weights ``w_c`` on *sufficient statistics*, not on ratios: counts sum
as ``Σ w_c · count_c``; the latency mean is ``Σ w_c · latency_sum_c /
Σ w_c · latency_count_c``; miss rates are ``Σ w_c · misses_c / Σ w_c ·
accesses_c``.

:func:`sampled_profile_from_file` is the out-of-core twin: two passes
over a trace file via :func:`repro.stream.iter_blocks` (fingerprint,
then fit only the representatives), peak memory O(interval).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from ..cache.cache import CacheConfig
from ..core.columnar import ColumnarTrace, as_columnar
from ..core.hierarchy import HierarchyConfig, TemporalLayer, two_level_ts
from ..core.profile import Profile
from ..core.profiler import build_profile, fit_interval_leaves
from ..core.synthesis import synthesize
from ..core.trace import Trace
from ..eval.metrics import geometric_mean, percent_error
from ..sim.cache_driver import run_cache_trace
from ..sim.driver import simulate_trace
from .fingerprint import (
    fingerprint_intervals,
    fingerprint_trace,
    iter_stream_intervals,
)
from .plan import SamplePlan, build_plan, default_sample_k

__all__ = [
    "METRIC_NAMES",
    "SamplingReport",
    "build_sampled_profile",
    "sampled_profile_from_file",
    "sampling_comparison",
]

#: The Fig. 6 / Fig. 13 / Fig. 14 metrics the estimator predicts.
METRIC_NAMES: Tuple[str, ...] = (
    "read_bursts",
    "write_bursts",
    "avg_access_latency",
    "l1_miss_rate",
    "l2_miss_rate",
)


@dataclass
class SamplingReport:
    """Predicted-vs-full fidelity of one sampled estimate."""

    name: str
    num_requests: int
    plan: SamplePlan
    metrics: Dict[str, Dict[str, float]] = field(default_factory=dict)

    @property
    def geomean_error_percent(self) -> float:
        """Geomean of the per-metric percent errors (0.01 floor)."""
        return geometric_mean(
            [max(self.metrics[name]["error_percent"], 0.01) for name in METRIC_NAMES],
            floor=0.01,
        )

    @property
    def error_bound_percent(self) -> float:
        return self.plan.error_bound_percent

    @property
    def within_bound(self) -> bool:
        """Does the measured error honour the declared contract?

        Exact plans have bound 0.0 and, by construction, error floored
        at 0.01% — treat them as within bound.
        """
        if self.plan.exact:
            return True
        return self.geomean_error_percent <= self.plan.error_bound_percent

    def to_dict(self) -> dict:
        """Plain-data rendering (for JSON output and memoized payloads)."""
        return {
            "name": self.name,
            "num_requests": self.num_requests,
            "interval_count": self.plan.interval_count,
            "k": self.plan.k,
            "seed": self.plan.seed,
            "exact": self.plan.exact,
            "representatives": list(self.plan.representatives),
            "weights": list(self.plan.weights),
            "dispersion": self.plan.dispersion,
            "error_bound_percent": self.plan.error_bound_percent,
            "metrics": {name: dict(self.metrics[name]) for name in METRIC_NAMES},
            "geomean_error_percent": self.geomean_error_percent,
            "within_bound": self.within_bound,
        }


def _outer_temporal_layer(config: HierarchyConfig) -> Optional[TemporalLayer]:
    layer = config.layers[0]
    return layer if isinstance(layer, TemporalLayer) else None


def _plan_for(
    columns: ColumnarTrace,
    layer: Optional[TemporalLayer],
    k: Optional[int],
) -> Tuple[List[ColumnarTrace], List]:
    """(interval slices, fingerprints) for a trace under one outer layer."""
    if layer is None:
        slices = [columns] if len(columns) else []
        return slices, fingerprint_intervals(slices)
    return fingerprint_trace(columns, layer)


def _resolve_k(k: Optional[int], interval_count: int) -> int:
    return default_sample_k(interval_count) if k is None else k


def build_sampled_profile(
    trace: Union[Trace, ColumnarTrace],
    config: Optional[HierarchyConfig] = None,
    k: Optional[int] = None,
    seed: int = 0,
    name: str = "",
) -> Tuple[Profile, SamplePlan]:
    """Profile only K representative intervals of ``trace``.

    ``k=None`` selects the ~10% default. Returns the sampled profile
    (leaf models bit-identical to the full profile's for the selected
    intervals) and the plan that produced it. With ``k >= interval
    count`` the result *is* the full profile, byte-identical.
    """
    config = config if config is not None else two_level_ts()
    columns = as_columnar(trace)
    layer = _outer_temporal_layer(config)
    slices, fingerprints = _plan_for(columns, layer, k)
    plan = build_plan(fingerprints, _resolve_k(k, len(fingerprints)) or 1, seed=seed)
    if plan.exact:
        return build_profile(columns, config, name=name), plan
    leaves = fit_interval_leaves(
        [slices[index] for index in plan.representatives], config.layers[1:]
    )
    return Profile(leaves, hierarchy=config.describe(), name=name), plan


def sampled_profile_from_file(
    path,
    config: Optional[HierarchyConfig] = None,
    k: Optional[int] = None,
    seed: int = 0,
    name: str = "",
    block_requests: Optional[int] = None,
) -> Tuple[Profile, SamplePlan]:
    """Out-of-core :func:`build_sampled_profile` over a trace file.

    Pass 1 fingerprints intervals block by block
    (:func:`repro.stream.iter_blocks` + per-block segmentation); pass 2
    re-reads the file and fits only the representative intervals. Peak
    memory is O(interval) — the file is never loaded whole.
    """
    from ..stream import DEFAULT_BLOCK_REQUESTS, iter_blocks

    config = config if config is not None else two_level_ts()
    blocks = block_requests if block_requests is not None else DEFAULT_BLOCK_REQUESTS
    layer = _outer_temporal_layer(config)
    if layer is None:
        # No outer temporal layer: the whole trace is one interval and
        # any K is exact — fall through to the streaming full build.
        from ..stream import build_profile_streaming

        fingerprints = fingerprint_intervals(
            interval
            for _, interval in iter_stream_intervals(
                iter_blocks(path, blocks), TemporalLayer("request_count", 1 << 62)
            )
        )
        plan = build_plan(fingerprints, _resolve_k(k, len(fingerprints)) or 1, seed=seed)
        profile = build_profile_streaming(iter_blocks(path, blocks), config, name=name)
        return profile, plan

    fingerprints = fingerprint_intervals(
        interval
        for _, interval in iter_stream_intervals(iter_blocks(path, blocks), layer)
    )
    plan = build_plan(fingerprints, _resolve_k(k, len(fingerprints)) or 1, seed=seed)
    if plan.exact:
        from ..stream import build_profile_streaming

        profile = build_profile_streaming(iter_blocks(path, blocks), config, name=name)
        return profile, plan

    wanted = set(plan.representatives)
    leaves = []
    for index, interval in iter_stream_intervals(iter_blocks(path, blocks), layer):
        if index in wanted:
            leaves.extend(fit_interval_leaves([interval], config.layers[1:]))
    return Profile(leaves, hierarchy=config.describe(), name=name), plan


def _replay_metrics(
    synthetic, l1_config: Optional[CacheConfig]
) -> Tuple[object, object]:
    """(DRAM stats, cache stats) of one synthetic trace replay."""
    dram = simulate_trace(synthetic)
    cache = run_cache_trace(synthetic, l1_config)
    return dram, cache


def sampling_comparison(
    trace: Union[Trace, ColumnarTrace],
    config: Optional[HierarchyConfig] = None,
    k: Optional[int] = None,
    seed: int = 0,
    synthesis_seed: int = 1,
    name: str = "",
    l1_config: Optional[CacheConfig] = None,
) -> SamplingReport:
    """Predicted-vs-full error report for one trace.

    Runs the full profile→synthesis→replay pipeline, then the weighted
    K-representative estimate, and reports percent error per Fig.
    6/13/14 metric. Deterministic: a pure function of its arguments.
    """
    config = config if config is not None else two_level_ts()
    columns = as_columnar(trace)
    layer = _outer_temporal_layer(config)
    slices, fingerprints = _plan_for(columns, layer, k)
    plan = build_plan(fingerprints, _resolve_k(k, len(fingerprints)) or 1, seed=seed)

    full_profile = build_profile(columns, config, name=name)
    full_synthetic = synthesize(full_profile, seed=synthesis_seed)
    full_dram, full_cache = _replay_metrics(full_synthetic, l1_config)
    full_values = {
        "read_bursts": float(full_dram.read_bursts),
        "write_bursts": float(full_dram.write_bursts),
        "avg_access_latency": full_dram.avg_access_latency,
        "l1_miss_rate": full_cache.l1_miss_rate,
        "l2_miss_rate": full_cache.l2_miss_rate,
    }

    if plan.exact:
        # Byte-identical contract: the sampled profile is the full
        # profile, so synthesis and replay reproduce the full pipeline
        # exactly — the prediction *is* the full measurement.
        predicted_values = dict(full_values)
    else:
        read_bursts = write_bursts = 0.0
        latency_sum = latency_count = 0.0
        l1_misses = l1_accesses = 0.0
        l2_misses = l2_accesses = 0.0
        for index, weight in zip(plan.representatives, plan.weights):
            leaves = fit_interval_leaves([slices[index]], config.layers[1:])
            profile = Profile(leaves, hierarchy=config.describe(), name=name)
            synthetic = synthesize(profile, seed=synthesis_seed)
            dram, cache = _replay_metrics(synthetic, l1_config)
            read_bursts += weight * dram.read_bursts
            write_bursts += weight * dram.write_bursts
            latency_sum += weight * dram.latency_sum
            latency_count += weight * dram.latency_count
            l1_misses += weight * cache.l1.misses
            l1_accesses += weight * cache.l1.accesses
            l2_misses += weight * cache.l2.misses
            l2_accesses += weight * cache.l2.accesses
        predicted_values = {
            "read_bursts": read_bursts,
            "write_bursts": write_bursts,
            "avg_access_latency": (
                latency_sum / latency_count if latency_count else 0.0
            ),
            "l1_miss_rate": l1_misses / l1_accesses if l1_accesses else 0.0,
            "l2_miss_rate": l2_misses / l2_accesses if l2_accesses else 0.0,
        }

    metrics = {
        metric: {
            "predicted": predicted_values[metric],
            "full": full_values[metric],
            "error_percent": percent_error(
                predicted_values[metric], full_values[metric]
            ),
        }
        for metric in METRIC_NAMES
    }
    return SamplingReport(
        name=name, num_requests=len(columns), plan=plan, metrics=metrics
    )
