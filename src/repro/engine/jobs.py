"""The shared job model: canonical units of work behind every runner.

A *job* is a frozen dataclass whose fields are the complete input of a
deterministic computation — the same contract :mod:`repro.store.memo`
keys its cross-run cache on. This module owns the job types themselves
plus a small registry binding each type to:

* an **executor** — computes the payload (in this process or a pool
  worker);
* an optional **installer** — merges a payload into the in-process
  caches a figure runner reads (the eval layer's types install into
  :mod:`repro.eval.comparison` / :mod:`repro.eval.experiments`);
* an optional **cached-check** — tells :func:`repro.engine.prewarm` the
  payload is already installed in-process.

The four experiment job types (``DramJob``/``SpecJob``/``SizeJob``/
``SampleJob``) moved here from ``repro.eval.parallel`` (which re-exports
them, so existing imports and pickled pool traffic keep working); their
executors lazily import the eval layer, so ``repro.engine`` itself never
drags the experiment runners in at import time.

Registering a new job type is one call::

    @dataclass(frozen=True)
    class MyJob:
        name: str

    register_job_type(MyJob, executor=my_compute)

after which prewarm and the memo store (``store.memo.cache_key`` works
on any dataclass) both handle it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple, Union

#: Mirrors repro.eval.comparison defaults without importing it here.
DEFAULT_REQUESTS = 20_000
DEFAULT_INTERVAL = 500_000


# ---------------------------------------------------------------------------
# Job dataclasses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DramJob:
    """One baseline/McC(/STM) DRAM simulation trio (Figs. 6-13).

    The executor replays through :mod:`repro.sim.driver`; pool workers
    inherit ``MOCKTAILS_BACKEND`` from the parent's environment, so they
    build profiles on the same backend the parent would.
    """

    name: str
    num_requests: int = DEFAULT_REQUESTS
    seed: int = 0
    interval: int = DEFAULT_INTERVAL
    include_stm: bool = True


@dataclass(frozen=True)
class SpecJob:
    """Baseline + three synthetic traces for one SPEC-like benchmark
    (Figs. 14-16)."""

    benchmark: str
    num_requests: int = DEFAULT_REQUESTS
    seed: int = 0


@dataclass(frozen=True)
class SizeJob:
    """Trace/profile on-disk size measurement for one benchmark (Fig. 17)."""

    benchmark: str
    num_requests: int = DEFAULT_REQUESTS


@dataclass(frozen=True)
class SampleJob:
    """One sampled-vs-full fidelity report (repro.sample estimator)."""

    name: str
    num_requests: int = DEFAULT_REQUESTS
    seed: int = 0
    interval: int = DEFAULT_INTERVAL
    k: Optional[int] = None
    sample_seed: int = 0


Job = Union[DramJob, SpecJob, SizeJob, SampleJob]


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JobType:
    """Everything the engine knows about one job dataclass."""

    cls: type
    executor: Callable[[Any], Any]
    installer: Optional[Callable[[Any, Any], None]] = None
    cached_check: Optional[Callable[[Any], bool]] = None


_REGISTRY: Dict[type, JobType] = {}


def register_job_type(
    cls: type,
    executor: Callable[[Any], Any],
    installer: Optional[Callable[[Any, Any], None]] = None,
    cached_check: Optional[Callable[[Any], bool]] = None,
) -> JobType:
    """Bind a frozen job dataclass to its executor (and optional hooks)."""
    if not dataclasses.is_dataclass(cls):
        raise TypeError(f"job types must be dataclasses, got {cls.__name__}")
    entry = JobType(
        cls=cls, executor=executor, installer=installer, cached_check=cached_check
    )
    _REGISTRY[cls] = entry
    return entry


def job_type_of(job: Any) -> JobType:
    entry = _REGISTRY.get(type(job))
    if entry is None:
        raise TypeError(f"unknown job type: {job!r}")
    return entry


# ---------------------------------------------------------------------------
# Execution / cache-merge hooks
# ---------------------------------------------------------------------------


def execute_job(job: Any) -> Tuple[Any, Any]:
    """Run one job (in whatever process this is) and return its payload.

    Returns ``(job, payload)`` so process pools can ``map`` it and
    re-associate results with their inputs.
    """
    return job, job_type_of(job).executor(job)


def install(job: Any, payload: Any) -> None:
    """Merge one payload into the in-process cache its runner reads."""
    installer = job_type_of(job).installer
    if installer is not None:
        installer(job, payload)


def is_cached(job: Any) -> bool:
    """Whether the payload is already installed in-process."""
    check = job_type_of(job).cached_check
    return check(job) if check is not None else False


# ---------------------------------------------------------------------------
# Built-in job types
# ---------------------------------------------------------------------------


def _execute_dram(job: DramJob) -> Any:
    from ..eval import comparison

    return comparison.dram_comparison(
        job.name,
        job.num_requests,
        seed=job.seed,
        interval=job.interval,
        include_stm=job.include_stm,
    )


def _dram_cache_key(job: DramJob) -> Tuple:
    return (job.name, job.num_requests, job.seed, job.interval, job.include_stm, None)


def _install_dram(job: DramJob, payload: Any) -> None:
    from ..eval import comparison

    comparison._run_cache[_dram_cache_key(job)] = payload


def _cached_dram(job: DramJob) -> bool:
    from ..eval import comparison

    return _dram_cache_key(job) in comparison._run_cache


def _execute_spec(job: SpecJob) -> Any:
    from ..eval import experiments

    return experiments.spec_synthetics(job.benchmark, job.num_requests, job.seed)


def _install_spec(job: SpecJob, payload: Any) -> None:
    from ..eval import experiments

    experiments._SPEC_SYNTH_CACHE[(job.benchmark, job.num_requests, job.seed)] = payload


def _cached_spec(job: SpecJob) -> bool:
    from ..eval import experiments

    return (job.benchmark, job.num_requests, job.seed) in experiments._SPEC_SYNTH_CACHE


def _execute_size(job: SizeJob) -> Any:
    from ..eval import experiments

    return experiments.spec_size_record(job.benchmark, job.num_requests)


def _install_size(job: SizeJob, payload: Any) -> None:
    from ..eval import experiments

    experiments._SPEC_SIZE_CACHE[(job.benchmark, job.num_requests)] = payload


def _cached_size(job: SizeJob) -> bool:
    from ..eval import experiments

    return (job.benchmark, job.num_requests) in experiments._SPEC_SIZE_CACHE


def _sample_cache_key(job: SampleJob) -> Tuple:
    return (job.name, job.num_requests, job.seed, job.interval, job.k, job.sample_seed)


def _execute_sample(job: SampleJob) -> Any:
    from ..eval import experiments

    return experiments.sampling_report_for(
        job.name,
        job.num_requests,
        seed=job.seed,
        interval=job.interval,
        k=job.k,
        sample_seed=job.sample_seed,
    )


def _install_sample(job: SampleJob, payload: Any) -> None:
    from ..eval import experiments

    experiments._SAMPLING_CACHE[_sample_cache_key(job)] = payload


def _cached_sample(job: SampleJob) -> bool:
    from ..eval import experiments

    return _sample_cache_key(job) in experiments._SAMPLING_CACHE


register_job_type(
    DramJob,
    executor=_execute_dram,
    installer=_install_dram,
    cached_check=_cached_dram,
)
register_job_type(
    SpecJob,
    executor=_execute_spec,
    installer=_install_spec,
    cached_check=_cached_spec,
)
register_job_type(
    SizeJob,
    executor=_execute_size,
    installer=_install_size,
    cached_check=_cached_size,
)
register_job_type(
    SampleJob,
    executor=_execute_sample,
    installer=_install_sample,
    cached_check=_cached_sample,
)
