"""Serial-vs-parallel equivalence for the process-pool experiment runner.

The contract of :mod:`repro.eval.parallel` is that prewarming the caches
from worker processes changes nothing but wall-clock time: the figure
runners must return bit-identical results. These tests run at a tiny
request count so the parallel path (real worker processes) stays fast.
"""

import dataclasses
import multiprocessing

import pytest

from repro.eval import comparison, experiments, parallel
from repro.eval.comparison import clear_cache
from repro.eval.parallel import (
    DramJob,
    SizeJob,
    SpecJob,
    default_processes,
    jobs_for,
    prewarm,
    run_experiment,
)
from repro.workloads.registry import TABLE_II_WORKLOADS
from repro.workloads.spec import FIG15_BENCHMARKS, SPEC_BENCHMARKS

REQUESTS = 1200
SPEC_REQUESTS = 1500
FIG14_SUBSET = ("gobmk", "mcf")


def _clear_all_caches():
    clear_cache()
    experiments._SPEC_SYNTH_CACHE.clear()
    experiments._SPEC_SIZE_CACHE.clear()


@pytest.fixture(autouse=True)
def fresh_caches():
    _clear_all_caches()
    yield
    _clear_all_caches()


# ---------------------------------------------------------------------------
# Job-list construction
# ---------------------------------------------------------------------------


def test_fig6_jobs_cover_all_workloads():
    jobs = jobs_for("fig6", REQUESTS)
    assert [job.name for job in jobs] == list(TABLE_II_WORKLOADS)
    assert all(isinstance(job, DramJob) for job in jobs)
    assert all(job.num_requests == REQUESTS for job in jobs)


def test_fig13_jobs_cross_workloads_with_intervals():
    intervals = (100_000, 500_000)
    jobs = jobs_for("fig13", REQUESTS, intervals=intervals)
    assert len(jobs) == len(intervals) * len(TABLE_II_WORKLOADS)
    assert {job.interval for job in jobs} == set(intervals)
    assert all(not job.include_stm for job in jobs)


def test_fig13_jobs_default_to_runner_intervals():
    jobs = jobs_for("fig13", REQUESTS)
    assert {job.interval for job in jobs} == set(experiments.FIG13_INTERVALS)


def test_spec_jobs_honour_benchmark_subset():
    assert [job.benchmark for job in jobs_for("fig14", REQUESTS)] == list(
        SPEC_BENCHMARKS
    )
    subset = jobs_for("fig14", REQUESTS, benchmarks=FIG14_SUBSET)
    assert [job.benchmark for job in subset] == list(FIG14_SUBSET)
    assert all(isinstance(job, SpecJob) for job in subset)
    fig15 = jobs_for("fig15", REQUESTS)
    assert [job.benchmark for job in fig15] == list(FIG15_BENCHMARKS)
    fig17 = jobs_for("fig17", REQUESTS)
    assert all(isinstance(job, SizeJob) for job in fig17)


def test_unknown_experiment_has_no_jobs():
    assert jobs_for("fig2", REQUESTS) == []
    assert jobs_for("nonsense", REQUESTS) == []


def test_default_processes_positive():
    assert default_processes() >= 1


def test_default_processes_is_positive_and_capped():
    assert 1 <= default_processes() <= 8


def test_default_prefers_fork_where_available():
    methods = multiprocessing.get_all_start_methods()
    pool = parallel._make_pool(1)
    try:
        expected = "fork" if "fork" in methods else "spawn"
        assert pool._mp_context.get_start_method() == expected
    finally:
        pool.shutdown(wait=False)


# ---------------------------------------------------------------------------
# Jobs
# ---------------------------------------------------------------------------


def test_jobs_are_frozen_and_hashable():
    job = DramJob("trex1", REQUESTS)
    with pytest.raises(dataclasses.FrozenInstanceError):
        job.name = "other"
    assert len({job, DramJob("trex1", REQUESTS)}) == 1


def test_install_round_trip_marks_cached():
    job = DramJob("trex1", 400)
    assert not job.installed()
    payload = job.run()
    clear_cache()
    job.install(payload)
    assert job.installed()
    # The installed payload is exactly what the runner now reads.
    assert comparison.dram_comparison("trex1", 400) is payload


# ---------------------------------------------------------------------------
# Prewarm semantics
# ---------------------------------------------------------------------------


def test_prewarm_serial_fills_cache_and_skips_cached():
    jobs = [DramJob("hevc1", REQUESTS), DramJob("trex1", REQUESTS)]
    assert prewarm(jobs, processes=1) == 2
    assert prewarm(jobs, processes=1) == 0  # second call: everything cached
    # duplicates are executed once
    _clear_all_caches()
    assert prewarm(jobs + jobs, processes=1) == 2


def test_prewarm_serial_matches_direct_call():
    direct = comparison.dram_comparison("hevc1", REQUESTS)
    clear_cache()
    prewarm([DramJob("hevc1", REQUESTS)], processes=1)
    warmed = comparison.dram_comparison("hevc1", REQUESTS)
    assert warmed.baseline == direct.baseline
    assert warmed.mcc == direct.mcc
    assert warmed.stm == direct.stm


# ---------------------------------------------------------------------------
# Bit-identical figures: serial vs worker processes
# ---------------------------------------------------------------------------


def test_fig6_parallel_bit_identical():
    serial = experiments.figure_6(REQUESTS)

    _clear_all_caches()
    executed = prewarm(jobs_for("fig6", REQUESTS), processes=2)
    assert executed == len(TABLE_II_WORKLOADS)
    parallel = experiments.figure_6(REQUESTS)

    assert parallel == serial


def test_fig14_parallel_bit_identical():
    serial = experiments.figure_14(SPEC_REQUESTS, benchmarks=FIG14_SUBSET)

    _clear_all_caches()
    executed = prewarm(
        jobs_for("fig14", SPEC_REQUESTS, benchmarks=FIG14_SUBSET), processes=2
    )
    assert executed == len(FIG14_SUBSET)
    parallel = experiments.figure_14(SPEC_REQUESTS, benchmarks=FIG14_SUBSET)

    assert parallel == serial


def test_run_experiment_matches_serial_runner():
    serial = experiments.figure_17(SPEC_REQUESTS, benchmarks=FIG14_SUBSET)
    _clear_all_caches()
    combined = run_experiment(
        "fig17", SPEC_REQUESTS, processes=2, benchmarks=FIG14_SUBSET
    )
    assert combined == serial


# ---------------------------------------------------------------------------
# Cache-merge path: a partial prewarm leaves only the gap to compute
# ---------------------------------------------------------------------------


def test_figure_computes_only_jobs_missing_from_prewarm():
    from repro import obs

    jobs = jobs_for("fig10", REQUESTS)
    assert len(jobs) == 2  # fbc-linear1 + fbc-tiled1
    prewarm(jobs[:1], processes=1)  # warm exactly one of the two trios

    obs.enable()
    try:
        experiments.figure_10(REQUESTS)
        counters = obs.active().snapshot()["counters"]
    finally:
        obs.disable()

    # The runner computed only the missing trio and served the
    # prewarmed one from the merged cache.
    assert counters["eval.runs.computed"] == 1
    assert counters["eval.runs.cached"] == 1


def test_prewarm_merges_worker_results_into_runner_caches():
    from repro import obs

    jobs = jobs_for("fig6", REQUESTS)
    subset = jobs[:3]
    prewarm(subset, processes=2)  # via real worker processes
    for job in subset:
        key = (job.name, job.num_requests, job.seed, job.interval, job.include_stm, None)
        assert key in comparison._run_cache

    obs.enable()
    try:
        executed = prewarm(jobs, processes=1)
        counters = obs.active().snapshot()["counters"]
    finally:
        obs.disable()

    # Completing the sweep only executes the jobs the subset lacked.
    assert executed == len(jobs) - len(subset)
    assert counters["eval.jobs.cached"] == len(subset)
    assert counters["eval.jobs.executed"] == len(jobs) - len(subset)
