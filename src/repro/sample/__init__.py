"""Statistical sampling: SimPoint-style interval selection for Mocktails.

Long traces spend most of their profile-build and replay time on
intervals that look alike. This package fingerprints every outer
temporal interval with the :mod:`repro.workloads.characterize` features
(:mod:`~repro.sample.fingerprint`), clusters the fingerprints with a
deterministic seeded k-means (:mod:`~repro.sample.cluster`), picks one
representative interval per cluster with an occupancy weight
(:mod:`~repro.sample.plan`), and estimates the full pipeline's Fig.
6/13/14 metrics from just those representatives
(:mod:`~repro.sample.estimator`), reporting predicted-vs-full error and
a declared error bound.

Guarantees:

* **deterministic** — every stage is a pure function of its inputs and
  the sampling seed; two runs are bit-identical;
* **exact when K covers everything** — ``k >= interval count`` runs the
  ordinary full pipeline, byte-identical output;
* **out-of-core** — fingerprints stream per block via
  :func:`repro.stream.iter_blocks`
  (:func:`~repro.sample.estimator.sampled_profile_from_file`).

Process-wide configuration lives in the environment, so parallel
workers inherit it: ``MOCKTAILS_SAMPLE_INTERVALS`` sets K
(unset/empty = sampling off), ``MOCKTAILS_SAMPLE_SEED`` the clustering
seed. :func:`sampling_fingerprint` folds both into
:mod:`repro.store.memo` cache keys so sampled and full results never
collide in the store.
"""

from __future__ import annotations

import os
from typing import Optional

from .cluster import KMeansResult, kmeans, normalize, squared_distance
from .estimator import (
    METRIC_NAMES,
    SamplingReport,
    build_sampled_profile,
    sampled_profile_from_file,
    sampling_comparison,
)
from .fingerprint import (
    FEATURE_NAMES,
    IntervalFingerprint,
    feature_vector,
    fingerprint_intervals,
    fingerprint_trace,
    interval_slices,
    iter_stream_intervals,
)
from .plan import (
    ERROR_BOUND_FLOOR_PERCENT,
    ERROR_BOUND_SCALE,
    SamplePlan,
    build_plan,
    default_sample_k,
    error_bound_percent,
)

__all__ = [
    "ERROR_BOUND_FLOOR_PERCENT",
    "ERROR_BOUND_SCALE",
    "FEATURE_NAMES",
    "METRIC_NAMES",
    "IntervalFingerprint",
    "KMeansResult",
    "SamplePlan",
    "SamplingReport",
    "build_plan",
    "build_sampled_profile",
    "configured_sample_intervals",
    "configured_sample_seed",
    "default_sample_k",
    "error_bound_percent",
    "feature_vector",
    "fingerprint_intervals",
    "fingerprint_trace",
    "interval_slices",
    "iter_stream_intervals",
    "kmeans",
    "normalize",
    "sampled_profile_from_file",
    "sampling_comparison",
    "sampling_fingerprint",
    "set_sampling",
    "squared_distance",
]

_K_ENV = "MOCKTAILS_SAMPLE_INTERVALS"
_SEED_ENV = "MOCKTAILS_SAMPLE_SEED"


def set_sampling(k: Optional[int], seed: Optional[int] = None) -> None:
    """Set (or clear, with ``k=None``) the process-wide sampling config."""
    if k is None:
        os.environ.pop(_K_ENV, None)
        os.environ.pop(_SEED_ENV, None)
        return
    if k <= 0:
        raise ValueError(f"sample interval count must be positive, got {k}")
    os.environ[_K_ENV] = str(k)
    if seed is not None:
        os.environ[_SEED_ENV] = str(seed)


def configured_sample_intervals() -> Optional[int]:
    """K from ``MOCKTAILS_SAMPLE_INTERVALS``, or ``None`` when sampling is off."""
    raw = os.environ.get(_K_ENV, "").strip()
    if not raw:
        return None
    try:
        k = int(raw)
    except ValueError:
        raise ValueError(f"{_K_ENV} must be an integer, got {raw!r}") from None
    if k <= 0:
        raise ValueError(f"{_K_ENV} must be positive, got {k}")
    return k


def configured_sample_seed() -> int:
    """Clustering seed from ``MOCKTAILS_SAMPLE_SEED`` (default 0)."""
    raw = os.environ.get(_SEED_ENV, "").strip()
    if not raw:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{_SEED_ENV} must be an integer, got {raw!r}") from None


def sampling_fingerprint() -> str:
    """The sampling configuration as a cache-key component.

    ``"off"`` when sampling is disabled, else ``"k=<K>:seed=<S>"`` —
    folded into :func:`repro.store.memo.cache_key` so sampled results
    never alias full ones in the result store.
    """
    k = configured_sample_intervals()
    if k is None:
        return "off"
    return f"k={k}:seed={configured_sample_seed()}"
