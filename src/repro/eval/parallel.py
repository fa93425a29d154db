"""Experiment-side client of the shared job engine (:mod:`repro.engine`).

The job model that used to live here — the ``DramJob``/``SpecJob``/
``SizeJob`` dataclasses, ``execute_job``, the pool construction and the
``prewarm`` fan-out with its per-key lock protocol — lives in
:mod:`repro.engine`.
This module keeps the experiment-specific half: mapping an
experiment name to its unit-job list (:func:`jobs_for`) and the
prewarm-then-aggregate convenience (:func:`run_experiment`).

Everything previously importable from here still is — the job types,
``execute_job``, ``prewarm``, ``make_pool``, ``default_processes`` are
re-exported — and results are bit-identical to the pre-refactor module:
the execution, installation and locking code is the same code, called
through the engine's job-type registry.

Usage::

    from repro.eval.parallel import jobs_for, prewarm

    prewarm(jobs_for("fig6", 20_000), processes=4)
    figure_6(20_000)          # served entirely from the warmed cache

or, end to end::

    run_experiment("fig6", 20_000, processes=4)
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from ..engine import (
    DramJob,
    Job,
    SizeJob,
    SpecJob,
    default_processes,
    execute_job,
    make_pool,
    prewarm,
)
from ..workloads.registry import TABLE_II_WORKLOADS
from ..workloads.spec import FIG15_BENCHMARKS, SPEC_BENCHMARKS
from . import experiments
from .comparison import DEFAULT_INTERVAL, DEFAULT_REQUESTS

__all__ = [
    "DEFAULT_INTERVAL",
    "DEFAULT_REQUESTS",
    "DramJob",
    "JOB_BUILDERS",
    "Job",
    "SizeJob",
    "SpecJob",
    "default_processes",
    "execute_job",
    "jobs_for",
    "make_pool",
    "prewarm",
    "run_experiment",
]

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
    runner = getattr(experiments, _RUNNER_NAMES[experiment])
    prewarm(jobs_for(experiment, num_requests, **kwargs), processes=processes)
    return runner(num_requests, **kwargs)


_RUNNER_NAMES = {
    name: f"figure_{name[3:]}" for name in JOB_BUILDERS if name.startswith("fig")
}
