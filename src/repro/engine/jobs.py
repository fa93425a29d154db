"""The shared job model: canonical units of work behind every runner.

A *job* is a frozen dataclass whose fields are the complete input of a
deterministic computation — the same contract :mod:`repro.store.memo`
keys its cross-run cache on. This module owns the job types themselves
plus a small registry binding each type to:

* an **executor** — computes the payload (runs in whatever process the
  scheduler picked);
* an optional **installer** — merges a payload into the in-process
  caches a figure runner reads (the eval layer's types install into
  :mod:`repro.eval.comparison` / :mod:`repro.eval.experiments`);
* an optional **cached-check** — tells the scheduler the payload is
  already installed in-process;
* an optional **wire adapter** — the job's service-facing name, field
  validation for requests arriving over the network, and a
  JSON-serializable summary of its payload.

The four experiment job types (``DramJob``/``SpecJob``/``SizeJob``/
``SampleJob``) moved here from ``repro.eval.parallel`` (which re-exports
them, so existing imports and pickled pool traffic keep working); their
executors lazily import the eval layer, so ``repro.engine`` itself never
drags the experiment runners in at import time. ``ProfileJob`` and
``SynthesizeJob`` are new: the service-level "profile this workload" /
"synthesize a clone" units whose payloads are plain JSON-ready dicts.

Registering a new job type is one call::

    @dataclass(frozen=True)
    class MyJob:
        name: str

    register_job_type(MyJob, executor=my_compute, wire_kind="my-kind")

after which the scheduler, the memo store (``store.memo.cache_key``
works on any dataclass) and the service front end all handle it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple, Type, Union

#: Mirrors repro.eval.comparison defaults without importing it here.
DEFAULT_REQUESTS = 20_000
DEFAULT_INTERVAL = 500_000


class JobValidationError(ValueError):
    """A job request whose parameters can never compute (bad workload
    name, non-positive scale, unknown field)."""


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


@dataclass(frozen=True)
class ProfileJob:
    """Build one workload's statistical profile; payload is a summary
    dict (leaf count, request total, serialized size, content digest)."""

    name: str
    num_requests: int = DEFAULT_REQUESTS
    seed: int = 0
    interval: int = DEFAULT_INTERVAL


@dataclass(frozen=True)
class SynthesizeJob:
    """Profile one workload and synthesize a clone; payload summarizes
    the synthetic trace (request count, op mix, content digest)."""

    name: str
    num_requests: int = DEFAULT_REQUESTS
    seed: int = 0
    interval: int = DEFAULT_INTERVAL
    synthesis_seed: int = 1


Job = Union[DramJob, SpecJob, SizeJob, SampleJob, ProfileJob, SynthesizeJob]


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
    wire_kind: Optional[str] = None
    validator: Optional[Callable[[Any], None]] = None
    wire_summary: Optional[Callable[[Any, Any], dict]] = None


_REGISTRY: Dict[type, JobType] = {}
_WIRE_KINDS: Dict[str, JobType] = {}


def register_job_type(
    cls: type,
    executor: Callable[[Any], Any],
    installer: Optional[Callable[[Any, Any], None]] = None,
    cached_check: Optional[Callable[[Any], bool]] = None,
    wire_kind: Optional[str] = None,
    validator: Optional[Callable[[Any], None]] = None,
    wire_summary: Optional[Callable[[Any, Any], dict]] = None,
) -> JobType:
    """Bind a frozen job dataclass to its executor (and optional hooks)."""
    if not dataclasses.is_dataclass(cls):
        raise TypeError(f"job types must be dataclasses, got {cls.__name__}")
    entry = JobType(
        cls=cls,
        executor=executor,
        installer=installer,
        cached_check=cached_check,
        wire_kind=wire_kind,
        validator=validator,
        wire_summary=wire_summary,
    )
    _REGISTRY[cls] = entry
    if wire_kind is not None:
        _WIRE_KINDS[wire_kind] = entry
    return entry


def job_type_of(job: Any) -> JobType:
    entry = _REGISTRY.get(type(job))
    if entry is None:
        raise TypeError(f"unknown job type: {job!r}")
    return entry


def wire_kinds() -> List[str]:
    """Service-facing job kinds, sorted."""
    return sorted(_WIRE_KINDS)


# ---------------------------------------------------------------------------
# Execution / cache-merge hooks (the scheduler's view)
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


def validate_job(job: Any) -> None:
    """Raise :class:`JobValidationError` if the job can never compute."""
    entry = job_type_of(job)
    if entry.validator is not None:
        entry.validator(job)


# ---------------------------------------------------------------------------
# Wire adaptation (the service's view)
# ---------------------------------------------------------------------------


def job_from_wire(kind: str, params: Optional[dict] = None) -> Any:
    """Construct (and validate) a job from a service request.

    ``params`` must be a flat dict of the dataclass's own fields; extra
    or mistyped fields raise :class:`JobValidationError` so the server
    can reject with a precise message instead of crashing a worker.
    """
    entry = _WIRE_KINDS.get(kind)
    if entry is None:
        raise JobValidationError(
            f"unknown job kind {kind!r} (expected one of: {', '.join(wire_kinds())})"
        )
    params = dict(params or {})
    fields = {field.name: field for field in dataclasses.fields(entry.cls)}
    unknown = sorted(set(params) - set(fields))
    if unknown:
        raise JobValidationError(
            f"{kind}: unknown parameter(s): {', '.join(unknown)}"
        )
    coerced = {}
    for name, value in params.items():
        # JSON gives us str/int/float/bool/None; ints must be real ints
        # (a float request count would silently truncate somewhere deep).
        if isinstance(value, bool) and fields[name].type not in ("bool", bool):
            raise JobValidationError(f"{kind}: parameter {name!r} must not be a bool")
        if isinstance(value, float) and not value.is_integer():
            raise JobValidationError(f"{kind}: parameter {name!r} must be an integer")
        coerced[name] = int(value) if isinstance(value, float) else value
    try:
        job = entry.cls(**coerced)
    except TypeError as error:
        raise JobValidationError(f"{kind}: {error}") from None
    validate_job(job)
    return job


def wire_payload(job: Any, payload: Any) -> dict:
    """The payload as a JSON-serializable summary for the wire."""
    entry = job_type_of(job)
    if entry.wire_summary is not None:
        return entry.wire_summary(job, payload)
    return {"repr": repr(payload)}


# ---------------------------------------------------------------------------
# Built-in job types
# ---------------------------------------------------------------------------


def _require_positive(job: Any, *field_names: str) -> None:
    for name in field_names:
        value = getattr(job, name)
        if value is not None and value <= 0:
            raise JobValidationError(f"{name} must be positive, got {value}")


def _require_workload(name: str) -> None:
    from ..workloads.registry import available_workloads

    if name not in available_workloads():
        raise JobValidationError(f"unknown workload: {name!r}")


def _validate_named(job: Any) -> None:
    _require_workload(job.name)
    _require_positive(job, "num_requests", "interval")


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


def _stats_summary(stats: Any) -> dict:
    """The Fig. 6/7/9 metric slice of one ``MemorySystemStats``."""
    return {
        "read_bursts": stats.read_bursts,
        "write_bursts": stats.write_bursts,
        "read_row_hits": stats.read_row_hits,
        "write_row_hits": stats.write_row_hits,
        "avg_read_queue_length": stats.avg_read_queue_length,
        "avg_write_queue_length": stats.avg_write_queue_length,
        "avg_access_latency": stats.avg_access_latency,
    }


def _wire_dram(job: DramJob, payload: Any) -> dict:
    result = {
        "name": payload.name,
        "device": payload.device,
        "num_requests": payload.num_requests,
        "interval": payload.interval,
        "baseline": _stats_summary(payload.baseline),
        "mcc": _stats_summary(payload.mcc),
    }
    if payload.stm is not None:
        result["stm"] = _stats_summary(payload.stm)
    return result


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


def _validate_sample(job: SampleJob) -> None:
    _validate_named(job)
    _require_positive(job, "k")


def _wire_sample(job: SampleJob, payload: Any) -> dict:
    # sampling_report_for already returns a flat JSON-ready dict.
    return dict(payload)


def _profile_inputs(job: Union[ProfileJob, SynthesizeJob]) -> Tuple[Any, Any]:
    from ..core.hierarchy import two_level_ts
    from ..core.profiler import build_profile
    from ..eval.comparison import baseline_trace

    trace = baseline_trace(job.name, job.num_requests, job.seed)
    hierarchy = two_level_ts(cycles_per_interval=job.interval)
    return trace, build_profile(trace, hierarchy, name=job.name)


def _profile_digest(profile: Any) -> str:
    from ..core.serialization import profile_to_dict

    canonical = json.dumps(profile_to_dict(profile), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _execute_profile(job: ProfileJob) -> dict:
    from ..core.serialization import profile_size_bytes

    _, profile = _profile_inputs(job)
    leaves = list(profile)
    return {
        "name": job.name,
        "num_requests": job.num_requests,
        "interval": job.interval,
        "leaves": len(leaves),
        "profiled_requests": sum(leaf.count for leaf in leaves),
        "profile_bytes": profile_size_bytes(profile),
        "sha256": _profile_digest(profile),
    }


def _trace_digest(trace: Any) -> str:
    digest = hashlib.sha256()
    for request in trace:
        record = (
            f"{request.timestamp},{request.address},"
            f"{request.operation.value},{request.size}\n"
        )
        digest.update(record.encode("ascii"))
    return digest.hexdigest()


def _execute_synthesize(job: SynthesizeJob) -> dict:
    from ..core.synthesis import synthesize

    _, profile = _profile_inputs(job)
    synthetic = synthesize(profile, seed=job.synthesis_seed)
    requests = list(synthetic)
    reads = sum(1 for request in requests if request.operation.name == "READ")
    duration = requests[-1].timestamp - requests[0].timestamp if requests else 0
    return {
        "name": job.name,
        "num_requests": job.num_requests,
        "interval": job.interval,
        "synthesis_seed": job.synthesis_seed,
        "synthetic_requests": len(requests),
        "reads": reads,
        "writes": len(requests) - reads,
        "duration_cycles": duration,
        "sha256": _trace_digest(synthetic),
    }


def _wire_dict(job: Any, payload: dict) -> dict:
    return dict(payload)


register_job_type(
    DramJob,
    executor=_execute_dram,
    installer=_install_dram,
    cached_check=_cached_dram,
    wire_kind="evaluate",
    validator=_validate_named,
    wire_summary=_wire_dram,
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
    wire_kind="sample",
    validator=_validate_sample,
    wire_summary=_wire_sample,
)
register_job_type(
    ProfileJob,
    executor=_execute_profile,
    wire_kind="profile",
    validator=_validate_named,
    wire_summary=_wire_dict,
)
register_job_type(
    SynthesizeJob,
    executor=_execute_synthesize,
    wire_kind="synthesize",
    validator=_validate_named,
    wire_summary=_wire_dict,
)
