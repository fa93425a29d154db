"""The ``--jobs N`` fan-out: the unit jobs behind each figure runner.

A *job* is a frozen dataclass whose fields are the complete input of one
deterministic computation — the same contract :mod:`repro.store` keys
its cross-run cache on. Each job type knows how to ``run()`` itself,
``install(payload)`` the result into the in-process cache its figure
runner reads, and tell whether it is ``installed()`` already.

:func:`prewarm` takes a job list, skips what is installed, loads what
the active store (:func:`repro.store.active_memo`) holds, and computes
the rest — serially, or on a fork-preferred process pool — installing
and storing every result in the parent. Every job carries its seeds
explicitly, so a worker reproduces exactly the computation the serial
path would have run: figure results after a parallel prewarm are
bit-identical to serial execution.

Usage::

    from repro.eval.parallel import jobs_for, prewarm

    prewarm(jobs_for("fig6", 20_000), processes=4)
    figure_6(20_000)          # served entirely from the warmed cache

or, end to end::

    run_experiment("fig6", 20_000, processes=4)
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from .. import obs, store
from ..workloads.registry import TABLE_II_WORKLOADS
from ..workloads.spec import FIG15_BENCHMARKS, SPEC_BENCHMARKS
from . import comparison, experiments
from .comparison import DEFAULT_INTERVAL, DEFAULT_REQUESTS

__all__ = [
    "DramJob",
    "Job",
    "SizeJob",
    "SpecJob",
    "default_processes",
    "jobs_for",
    "prewarm",
    "run_experiment",
]


# ---------------------------------------------------------------------------
# Jobs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DramJob:
    """One baseline/McC(/STM) DRAM simulation trio (Figs. 6-13)."""

    name: str
    num_requests: int = DEFAULT_REQUESTS
    seed: int = 0
    interval: int = DEFAULT_INTERVAL
    include_stm: bool = True

    def _key(self) -> tuple:
        return (self.name, self.num_requests, self.seed, self.interval, self.include_stm, None)

    def run(self) -> Any:
        return comparison.dram_comparison(
            self.name,
            self.num_requests,
            seed=self.seed,
            interval=self.interval,
            include_stm=self.include_stm,
        )

    def install(self, payload: Any) -> None:
        comparison._run_cache[self._key()] = payload

    def installed(self) -> bool:
        return self._key() in comparison._run_cache


@dataclass(frozen=True)
class SpecJob:
    """Baseline + three synthetic traces for one SPEC-like benchmark
    (Figs. 14-16)."""

    benchmark: str
    num_requests: int = DEFAULT_REQUESTS
    seed: int = 0

    def run(self) -> Any:
        return experiments.spec_synthetics(self.benchmark, self.num_requests, self.seed)

    def install(self, payload: Any) -> None:
        experiments._SPEC_SYNTH_CACHE[(self.benchmark, self.num_requests, self.seed)] = payload

    def installed(self) -> bool:
        return (self.benchmark, self.num_requests, self.seed) in experiments._SPEC_SYNTH_CACHE


@dataclass(frozen=True)
class SizeJob:
    """Trace/profile on-disk size measurement for one benchmark (Fig. 17)."""

    benchmark: str
    num_requests: int = DEFAULT_REQUESTS

    def run(self) -> Any:
        return experiments.spec_size_record(self.benchmark, self.num_requests)

    def install(self, payload: Any) -> None:
        experiments._SPEC_SIZE_CACHE[(self.benchmark, self.num_requests)] = payload

    def installed(self) -> bool:
        return (self.benchmark, self.num_requests) in experiments._SPEC_SIZE_CACHE


Job = Union[DramJob, SpecJob, SizeJob]


# ---------------------------------------------------------------------------
# Prewarm
# ---------------------------------------------------------------------------


def default_processes() -> int:
    """Worker count when none is given: all cores, capped at 8."""
    return min(os.cpu_count() or 1, 8)


def _make_pool(processes: int) -> ProcessPoolExecutor:
    """A worker pool with observability disabled in the workers (their
    registries would die with the process, and a forked JSONL handle
    would interleave with the parent's stream).

    Fork keeps workers cheap and is safe here: the pool is built from a
    single-threaded main. Spawn works too, because jobs and payloads are
    plain picklable dataclasses.
    """
    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
    return ProcessPoolExecutor(
        max_workers=processes, mp_context=context, initializer=obs.disable
    )


def _run(job: Job) -> Any:
    return job.run()


def prewarm(jobs: Sequence[Job], processes: Optional[int] = None) -> int:
    """Compute ``jobs`` and merge the results into the runner caches.

    Duplicates run once; jobs already installed in-process or memoized
    in the active store are skipped. With ``processes`` <= 1 the rest
    run serially in this process (still warming the caches, so the
    figure call afterwards is identical either way). Returns the number
    of jobs actually executed.
    """
    jobs = list(dict.fromkeys(jobs))
    todo = [job for job in jobs if not job.installed()]
    registry = obs.active()
    if registry is not None:
        registry.counter("eval.jobs.cached").inc(len(jobs) - len(todo))
    memo = store.active_memo()
    if memo is not None:
        remaining = []
        for job in todo:
            payload = memo.fetch(job)
            if payload is None:
                remaining.append(job)
                continue
            job.install(payload)
            if registry is not None:
                registry.counter("eval.jobs.memoized").inc()
        todo = remaining
    if not todo:
        return 0

    processes = default_processes() if processes is None else processes
    workers = min(processes, len(todo))
    if registry is not None:
        registry.counter("eval.jobs.executed").inc(len(todo))
        registry.event("prewarm.start", total=len(todo), processes=max(workers, 1))
    pool = _make_pool(workers) if workers > 1 else None
    try:
        results = pool.map(_run, todo) if pool is not None else map(_run, todo)
        for completed, (job, payload) in enumerate(zip(todo, results), 1):
            job.install(payload)
            if memo is not None:
                memo.store(job, payload)
            if registry is not None:
                registry.event(
                    "worker.heartbeat",
                    completed=completed,
                    total=len(todo),
                    job=type(job).__name__,
                )
    finally:
        if pool is not None:
            pool.shutdown()
    if registry is not None:
        registry.event("prewarm.finish", total=len(todo))
    return len(todo)


# ---------------------------------------------------------------------------
# Experiment -> job-list mapping
# ---------------------------------------------------------------------------


def _device_sweep(num_requests: int, **_: object) -> List[Job]:
    return [DramJob(name, num_requests) for name in TABLE_II_WORKLOADS]


def _workloads(*names: str) -> Callable[..., List[Job]]:
    def jobs(num_requests: int, **_: object) -> List[Job]:
        return [DramJob(name, num_requests) for name in names]

    return jobs


def _fig13_jobs(
    num_requests: int, intervals: Optional[Sequence[int]] = None, **_: object
) -> List[Job]:
    intervals = experiments.FIG13_INTERVALS if intervals is None else intervals
    return [
        DramJob(name, num_requests, interval=interval, include_stm=False)
        for interval in intervals
        for name in TABLE_II_WORKLOADS
    ]


def _spec_sweep(
    default_benchmarks: Sequence[str],
) -> Callable[..., List[Job]]:
    def jobs(
        num_requests: int, benchmarks: Optional[Sequence[str]] = None, **_: object
    ) -> List[Job]:
        names = default_benchmarks if benchmarks is None else benchmarks
        return [SpecJob(benchmark, num_requests) for benchmark in names]

    return jobs


def _fig17_jobs(
    num_requests: int, benchmarks: Optional[Sequence[str]] = None, **_: object
) -> List[Job]:
    names = SPEC_BENCHMARKS if benchmarks is None else benchmarks
    return [SizeJob(benchmark, num_requests) for benchmark in names]


JOB_BUILDERS: Dict[str, Callable[..., List[Job]]] = {
    "fig6": _device_sweep,
    "fig7": _device_sweep,
    "fig8": _workloads("trex1"),
    "fig9": _device_sweep,
    "fig10": _workloads("fbc-linear1", "fbc-tiled1"),
    "fig11": _workloads("fbc-linear1", "fbc-tiled1"),
    "fig12": _workloads("fbc-linear1"),
    "fig13": _fig13_jobs,
    "fig14": _spec_sweep(SPEC_BENCHMARKS),
    "fig15": _spec_sweep(tuple(FIG15_BENCHMARKS)),
    "fig16": _spec_sweep(tuple(FIG15_BENCHMARKS)),
    "fig17": _fig17_jobs,
}


def jobs_for(experiment: str, num_requests: int, **kwargs: object) -> List[Job]:
    """The unit jobs behind one experiment's runner.

    ``kwargs`` mirror the runner's own keyword arguments where they
    change the work to be done (``intervals`` for fig13, ``benchmarks``
    for figs 14-17). Experiments without a parallel decomposition
    (fig2/fig3/table1 and the extension studies are single-simulation
    or trivially cheap) return an empty list.
    """
    builder = JOB_BUILDERS.get(experiment)
    if builder is None:
        return []
    return builder(num_requests, **kwargs)


def run_experiment(
    experiment: str,
    num_requests: int,
    processes: Optional[int] = None,
    **kwargs: object,
):
    """Prewarm an experiment's jobs in parallel, then run its runner."""
    runner = getattr(experiments, f"figure_{experiment[3:]}")
    prewarm(jobs_for(experiment, num_requests, **kwargs), processes=processes)
    return runner(num_requests, **kwargs)
