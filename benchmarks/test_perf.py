"""Performance-regression snapshot (``-m perf``; excluded by default).

Times the core hot paths (profile build, synthesis, trace replay) and
the three slowest figure runners (Figs. 6, 13, 14) serially and under
the parallel prewarm, verifies the parallel results are bit-identical,
and writes the measurements to ``BENCH_perf.json`` at the repo root so
the performance trajectory is tracked PR over PR (``scripts/bench.sh``
diffs consecutive snapshots). Cross-run memoization (:mod:`repro.store`)
is measured the same way: fig6 is run cold through a temp store and
again warm, the warm result is asserted bit-identical, and the
cold-over-warm speedup is recorded alongside the parallel one. The
columnar trace backend (:mod:`repro.core.columnar`) is measured the same
way: the vectorized profile build and the batched cache sweep are timed
against their scalar twins on the 20k-request micro-benches, asserted
bit-identical, and the speedups recorded as ``speedup_profile_build`` /
``speedup_cache_sweep``. The out-of-core streaming build
(:mod:`repro.stream`) is held to the same bar (schema 5): the chunked
map-reduce build is timed against the in-memory columnar build on the
same 20k micro-bench, asserted bit-identical and within 1.5x, and the
tracemalloc peak allocation size of each build is recorded
(``peak_profile_memory_bytes`` vs ``peak_profile_memory_bytes_inmemory``).
Statistical sampling (:mod:`repro.sample`, schema 6) is measured on the
same micro-bench: the K-representative profile build is timed against
the full columnar build (floor: 3x faster at the ~10% default K) and
the weighted estimate's Fig. 6/13/14 geomean error is recorded and
asserted against the plan's declared error bound.
The memory-system engine (:mod:`repro.dram.batched`) replays the 20k
synthetic trace as column blocks (``dram_replay_batched``); there is no
second engine to compare it against since schema 10. The serial
figure runs additionally attribute their wall time to
``replay.synthesis`` / ``replay.crossbar`` / ``replay.dram`` phase
timers (``figure_phase_seconds``, schema 9).
Schema 11 drops the job-queue service storm (schema 7) and the lint
cold/warm timings (schema 8) together with the code they measured.
A run manifest (``BENCH_manifest.json``,
via :mod:`repro.obs`) is recorded alongside it with host info and the
observability counters accumulated during the figure runs.

Honesty note: the parallel-vs-serial comparison only means something
with at least two CPUs. On a single-CPU host the parallel runs are
skipped and the snapshot is flagged ``"degraded": true`` with a null
speedup, instead of recording pool overhead as if it were a slowdown.

Scale defaults to the bench scale (``MOCKTAILS_BENCH_REQUESTS`` /
``MOCKTAILS_BENCH_SPEC_REQUESTS``); override with
``MOCKTAILS_PERF_REQUESTS`` / ``MOCKTAILS_PERF_SPEC_REQUESTS``.
"""

import json
import os
import platform
import tempfile
import time
from pathlib import Path

import pytest

from repro import obs, store
from repro.core.columnar import ColumnarTrace, numpy_or_none
from repro.core.hierarchy import two_level_ts
from repro.core.profiler import build_profile
from repro.core.serialization import profile_to_dict
from repro.core.synthesis import synthesize
from repro.eval import experiments
from repro.eval.comparison import baseline_trace, clear_cache
from repro.eval.parallel import jobs_for, prewarm
from repro.sim.cache_driver import run_cache_trace
from repro.sim.driver import simulate_trace
from repro.stream import build_profile_streaming

from conftest import BENCH_REQUESTS, SPEC_REQUESTS

pytestmark = pytest.mark.perf

PERF_REQUESTS = int(os.environ.get("MOCKTAILS_PERF_REQUESTS", str(BENCH_REQUESTS)))
PERF_SPEC_REQUESTS = int(
    os.environ.get("MOCKTAILS_PERF_SPEC_REQUESTS", str(SPEC_REQUESTS))
)
CORE_REQUESTS = 20_000  # fixed scale for the synthesis/replay micro-timings

FIG13_INTERVALS = (100_000, 500_000, 1_000_000)
FIG14_BENCHMARKS = (
    "gobmk", "h264ref", "hmmer", "libquantum", "mcf", "milc", "soplex", "zeusmp",
)

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_perf.json"
MANIFEST_PATH = Path(__file__).resolve().parent.parent / "BENCH_manifest.json"


def _clear_caches():
    clear_cache()
    experiments._SPEC_SYNTH_CACHE.clear()
    experiments._SPEC_SIZE_CACHE.clear()


def _timed(func):
    start = time.perf_counter()
    result = func()
    return result, time.perf_counter() - start


def _timed_best(func, repeats=3):
    """Best-of-N timing for the sub-100ms backend micro-benches.

    The scalar-vs-columnar comparisons measure stages that finish in
    tens of milliseconds, where a single scheduler hiccup can swamp the
    signal; the minimum over a few repeats is the standard estimator of
    the undisturbed runtime (same rationale as ``timeit``).
    """
    result = None
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        result = func()
        best = min(best, time.perf_counter() - start)
    return result, best


def test_perf_snapshot(bench_jobs, capsys):
    jobs = bench_jobs if bench_jobs > 1 else 4
    cpus = os.cpu_count() or 1
    degraded = cpus < 2
    timings = {}

    # -- core hot paths (observability disabled: measures the default) -----
    trace = baseline_trace("hevc1", CORE_REQUESTS)
    profile, timings["profile_build"] = _timed(
        lambda: build_profile(trace, two_level_ts(), name="hevc1")
    )
    synthetic, timings["synthesize"] = _timed(lambda: synthesize(profile, seed=1))
    _, timings["replay"] = _timed(lambda: simulate_trace(synthetic))

    # -- columnar backend vs scalar (20k-request micro-benches) ------------
    # The columnar runs take their input as a ColumnarTrace built outside
    # the timer: converting per-request objects to columns is a one-time
    # ingest cost, not part of the stage being vectorized.
    have_numpy = numpy_or_none() is not None
    profile_scalar, timings["profile_build_scalar"] = _timed_best(
        lambda: build_profile(trace, two_level_ts(), name="hevc1", backend="scalar")
    )
    columns = ColumnarTrace.from_trace(trace)
    profile_columnar, timings["profile_build_columnar"] = _timed_best(
        lambda: build_profile(columns, two_level_ts(), name="hevc1", backend="columnar")
    )
    columnar_identical = profile_to_dict(profile_columnar) == profile_to_dict(
        profile_scalar
    )
    assert columnar_identical, "columnar profile differs from scalar"

    sweep_trace = baseline_trace("mcf", CORE_REQUESTS)
    sweep_scalar, timings["cache_sweep_scalar"] = _timed_best(
        lambda: run_cache_trace(sweep_trace, backend="scalar")
    )
    sweep_columns = ColumnarTrace.from_trace(sweep_trace)
    sweep_columnar, timings["cache_sweep_columnar"] = _timed_best(
        lambda: run_cache_trace(sweep_columns, backend="columnar")
    )
    assert sweep_columnar.l1 == sweep_scalar.l1, "batched L1 stats differ from scalar"
    assert sweep_columnar.l2 == sweep_scalar.l2, "batched L2 stats differ from scalar"

    # -- memory-system engine on column blocks ------------------------------
    # The same 20k synthetic trace the core "replay" timing uses, handed
    # over as columns (ingest outside the timer).
    replay_columns = ColumnarTrace.from_trace(synthetic)
    _, timings["dram_replay_batched"] = _timed_best(
        lambda: simulate_trace(replay_columns)
    )

    # Without numpy both "columnar" runs fall back to scalar code, so the
    # ratio measures nothing; record null speedups instead of noise.
    speedup_profile_build = None
    speedup_cache_sweep = None
    if have_numpy:
        speedup_profile_build = (
            timings["profile_build_scalar"] / timings["profile_build_columnar"]
            if timings["profile_build_columnar"]
            else None
        )
        speedup_cache_sweep = (
            timings["cache_sweep_scalar"] / timings["cache_sweep_columnar"]
            if timings["cache_sweep_columnar"]
            else None
        )

    # -- streaming (out-of-core) build vs in-memory columnar ---------------
    # Same 20k micro-bench, default 8192-request blocks: the chunked
    # map-reduce build must stay within 1.5x of the one-shot columnar
    # build while holding only O(block) rows at a time.
    profile_streamed, timings["profile_build_streamed"] = _timed_best(
        lambda: build_profile_streaming(
            columns.iter_blocks(8192), two_level_ts(), name="hevc1"
        )
    )
    streaming_identical = profile_to_dict(profile_streamed) == profile_to_dict(
        profile_scalar
    )
    assert streaming_identical, "streamed profile differs from single-pass"

    streaming_over_columnar = None
    if have_numpy and timings["profile_build_columnar"]:
        streaming_over_columnar = (
            timings["profile_build_streamed"] / timings["profile_build_columnar"]
        )
        assert streaming_over_columnar < 1.5, (
            f"streaming build {streaming_over_columnar:.2f}x slower than "
            "in-memory columnar (budget: 1.5x)"
        )

    # -- statistical sampling (repro.sample): K-representative build -------
    # Same 20k hevc1 micro-bench: fingerprint + cluster + fit only the
    # ~10% representative intervals, vs the full columnar build above.
    # The estimate must honour its own declared error bound (schema 6).
    from repro.sample import (
        build_sampled_profile,
        default_sample_k,
        interval_slices,
        sampling_comparison,
    )

    sample_intervals = len(interval_slices(columns, two_level_ts().layers[0]))
    sample_k = default_sample_k(sample_intervals)
    (_, sample_plan), timings["sampled_profile_build"] = _timed_best(
        lambda: build_sampled_profile(
            columns, two_level_ts(), k=sample_k, name="hevc1", backend="columnar"
        )
    )
    assert not sample_plan.exact, (
        f"sampling bench degenerate: k={sample_k} covers all "
        f"{sample_intervals} intervals"
    )
    speedup_sampled_profile_build = None
    if have_numpy and timings["sampled_profile_build"]:
        speedup_sampled_profile_build = (
            timings["profile_build_columnar"] / timings["sampled_profile_build"]
        )
        assert speedup_sampled_profile_build >= 3.0, (
            f"sampled profile build only {speedup_sampled_profile_build:.2f}x "
            f"faster than full (k={sample_k}/{sample_intervals}; floor: 3x)"
        )

    sample_report = sampling_comparison(
        trace, two_level_ts(), k=sample_k, name="hevc1"
    )
    sampled_geomean_error_percent = sample_report.geomean_error_percent
    sampled_error_bound_percent = sample_report.error_bound_percent
    sampled_within_bound = sample_report.within_bound
    assert sampled_within_bound, (
        f"sampled estimate error {sampled_geomean_error_percent:.2f}% exceeds "
        f"its declared bound {sampled_error_bound_percent:.2f}%"
    )

    # Peak traced allocations of each build: the streamed number is what
    # the O(block) claim looks like in bytes (see PERFORMANCE.md).
    _, peak_profile_memory_bytes = obs.measure_peak_memory(
        lambda: build_profile_streaming(columns.iter_blocks(8192), two_level_ts())
    )
    _, peak_profile_memory_bytes_inmemory = obs.measure_peak_memory(
        lambda: build_profile(trace, two_level_ts(), stream=False)
    )

    # -- figure runners: serial (cold caches, metrics registry active) -----
    registry = obs.enable()
    try:
        runners = {
            "fig6": lambda: experiments.figure_6(PERF_REQUESTS),
            "fig13": lambda: experiments.figure_13(
                PERF_REQUESTS, intervals=FIG13_INTERVALS
            ),
            "fig14": lambda: experiments.figure_14(
                PERF_SPEC_REQUESTS, benchmarks=FIG14_BENCHMARKS
            ),
        }
        job_lists = {
            "fig6": jobs_for("fig6", PERF_REQUESTS),
            "fig13": jobs_for("fig13", PERF_REQUESTS, intervals=FIG13_INTERVALS),
            "fig14": jobs_for("fig14", PERF_SPEC_REQUESTS, benchmarks=FIG14_BENCHMARKS),
        }

        phases_before = registry.phases
        serial_results = {}
        for name, runner in runners.items():
            _clear_caches()
            serial_results[name], timings[f"{name}_serial"] = _timed(runner)
        phases_after = registry.phases
        # Where the serial figure wall time went: synthesis (profile build
        # + synthetic-trace generation) vs crossbar injection vs the final
        # DRAM drain (schema 9).
        figure_phase_seconds = {
            name: round(phases_after.get(name, 0.0) - phases_before.get(name, 0.0), 4)
            for name in ("replay.synthesis", "replay.crossbar", "replay.dram")
        }

        # -- figure runners: parallel prewarm + aggregate ------------------
        parallel_identical = None
        if not degraded:
            parallel_identical = True
            for name, runner in runners.items():
                _clear_caches()
                start = time.perf_counter()
                prewarm(job_lists[name], processes=jobs)
                result = runner()
                timings[f"{name}_jobs{jobs}"] = time.perf_counter() - start
                assert result == serial_results[name], (
                    f"{name}: parallel result differs from serial"
                )

        # -- cross-run memoization: populate the store cold, then time a
        # warm run that loads every payload instead of simulating ------
        warm_identical = None
        warm_speedup = None
        warm_hits = None
        with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as cache_dir:
            try:
                store.configure(cache_dir)
                _clear_caches()
                start = time.perf_counter()
                prewarm(job_lists["fig6"], processes=1)
                populate_result = experiments.figure_6(PERF_REQUESTS)
                timings["fig6_cold_store"] = time.perf_counter() - start

                _clear_caches()  # a "fresh process": only the disk is warm
                memo = store.configure(cache_dir)
                start = time.perf_counter()
                prewarm(job_lists["fig6"], processes=1)
                warm_result = experiments.figure_6(PERF_REQUESTS)
                timings["fig6_warm"] = time.perf_counter() - start
                warm_hits = memo.hits
            finally:
                store.deactivate()
        warm_identical = (
            warm_result == serial_results["fig6"]
            and populate_result == serial_results["fig6"]
        )
        assert warm_identical, "warm-cache fig6 differs from cold serial"
        assert warm_hits == len(job_lists["fig6"])
        warm_speedup = (
            timings["fig6_serial"] / timings["fig6_warm"]
            if timings["fig6_warm"]
            else None
        )

        serial_total = sum(timings[f"{name}_serial"] for name in runners)
        timings["figures_serial_total"] = serial_total
        speedup = None
        if not degraded:
            parallel_total = sum(timings[f"{name}_jobs{jobs}"] for name in runners)
            timings[f"figures_jobs{jobs}_total"] = parallel_total
            speedup = serial_total / parallel_total if parallel_total else None

        snapshot = {
            "schema": 11,
            "written_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "host": {
                "cpus": cpus,
                "python": platform.python_version(),
                "numpy": have_numpy,
            },
            "scale": {
                "core_requests": CORE_REQUESTS,
                "figure_requests": PERF_REQUESTS,
                "spec_requests": PERF_SPEC_REQUESTS,
                "jobs": jobs,
            },
            # With < 2 CPUs a parallel run can only measure pool overhead,
            # so the comparison is skipped rather than recorded as a bogus
            # "slowdown" (see PERFORMANCE.md).
            "degraded": degraded,
            "parallel_identical": parallel_identical,
            "speedup_serial_over_parallel": speedup,
            # Cross-run memoization (repro.store): a warm fig6 loads
            # every simulation payload from the content-addressed store.
            "warm_identical": warm_identical,
            "warm_cache_hits": warm_hits,
            "speedup_cold_over_warm": warm_speedup,
            # Columnar trace backend (repro.core.columnar): vectorized
            # profile build and batched cache sweep vs their scalar
            # twins, on bit-identical outputs. Null when numpy is absent
            # (the "columnar" runs then fall back to scalar code).
            "columnar_identical": columnar_identical,
            "speedup_profile_build": speedup_profile_build,
            "speedup_cache_sweep": speedup_cache_sweep,
            # Serial figure wall time attributed to synthesis/crossbar/
            # DRAM phases (schema 9).
            "figure_phase_seconds": figure_phase_seconds,
            # Streaming map-reduce build (repro.stream): bit-identical to
            # the single-pass build, throughput within 1.5x of in-memory
            # columnar (null ratio without numpy), with tracemalloc peak
            # allocation sizes for both builds (schema 5).
            "streaming_identical": streaming_identical,
            "streaming_over_columnar": streaming_over_columnar,
            "peak_profile_memory_bytes": peak_profile_memory_bytes,
            "peak_profile_memory_bytes_inmemory": peak_profile_memory_bytes_inmemory,
            # Statistical sampling (repro.sample): K-representative
            # profile build speedup over the full columnar build (null
            # without numpy), and the weighted estimate's measured
            # Fig. 6/13/14 geomean error against its declared bound
            # (schema 6).
            "sample_intervals": sample_intervals,
            "sample_k": sample_k,
            "speedup_sampled_profile_build": speedup_sampled_profile_build,
            "sampled_geomean_error_percent": sampled_geomean_error_percent,
            "sampled_error_bound_percent": sampled_error_bound_percent,
            "sampled_within_bound": sampled_within_bound,
            "timings_seconds": {key: round(value, 4) for key, value in timings.items()},
        }
        RESULT_PATH.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")

        for name, seconds in timings.items():
            registry.add_phase_time(name, seconds)
        manifest = obs.build_manifest(
            registry,
            command="scripts/bench.sh",
            scale=snapshot["scale"],
            seeds={"base": 0, "synthesis": 1},
            extra={"degraded": degraded},
        )
        obs.write_manifest(MANIFEST_PATH, manifest)
    finally:
        obs.disable()

    with capsys.disabled():
        mode = "degraded: 1 cpu, parallel skipped" if degraded else f"jobs={jobs}"
        print(f"\n== perf snapshot ({PERF_REQUESTS:,} requests, {mode}) ==")
        for key in sorted(timings):
            print(f"  {key:>24}: {timings[key]:8.3f}s")
        if warm_speedup is not None:
            print(f"  warm-cache fig6 speedup: {warm_speedup:.1f}x "
                  f"({warm_hits} store hits, bit-identical)")
        if speedup_profile_build is not None:
            print(f"  columnar profile build:  {speedup_profile_build:.1f}x "
                  "over scalar (bit-identical)")
        if speedup_cache_sweep is not None:
            print(f"  batched cache sweep:     {speedup_cache_sweep:.1f}x "
                  "over scalar (bit-identical)")
        print("  figure phases:           "
              + ", ".join(
                  f"{name.split('.')[1]} {seconds:.1f}s"
                  for name, seconds in sorted(figure_phase_seconds.items())
              ))
        if streaming_over_columnar is not None:
            print(f"  streamed profile build:  {streaming_over_columnar:.2f}x "
                  "of in-memory columnar (bit-identical)")
        if speedup_sampled_profile_build is not None:
            print(f"  sampled profile build:   {speedup_sampled_profile_build:.1f}x "
                  f"over full (k={sample_k}/{sample_intervals}, "
                  f"err {sampled_geomean_error_percent:.1f}% <= "
                  f"bound {sampled_error_bound_percent:.1f}%)")
        print(f"  peak build memory:       "
              f"{peak_profile_memory_bytes / 1e6:.1f} MB streamed vs "
              f"{peak_profile_memory_bytes_inmemory / 1e6:.1f} MB in-memory")
        print(f"  -> {RESULT_PATH}")
        print(f"  -> {MANIFEST_PATH}")
