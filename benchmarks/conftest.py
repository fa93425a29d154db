"""Shared configuration for the figure-reproduction benchmarks.

Scale is controlled by ``MOCKTAILS_BENCH_REQUESTS`` (default 8,000
requests per trace — minutes, same shapes). Set it higher (e.g. 100000)
to approach paper scale. Results are cached across benches in one
session, so figures sharing simulations (6/7/8/9/...) pay once.

Parallelism: pass ``--jobs N`` (or set ``MOCKTAILS_BENCH_JOBS=N``) to
fan the independent per-workload simulations out across N worker
processes before the figure benches aggregate them. Results are
bit-identical to serial runs — only the cache-fill order changes.
"""

import os

import pytest

BENCH_REQUESTS = int(os.environ.get("MOCKTAILS_BENCH_REQUESTS", "8000"))
SPEC_REQUESTS = int(os.environ.get("MOCKTAILS_BENCH_SPEC_REQUESTS", "12000"))


def pytest_addoption(parser):
    parser.addoption(
        "--jobs",
        type=int,
        default=int(os.environ.get("MOCKTAILS_BENCH_JOBS", "1")),
        help="worker processes for the simulation fan-out (default 1 = serial)",
    )


@pytest.fixture(scope="session")
def bench_requests():
    return BENCH_REQUESTS


@pytest.fixture(scope="session")
def spec_requests():
    return SPEC_REQUESTS


@pytest.fixture(scope="session", autouse=True)
def parallel_prewarm(request):
    """With --jobs > 1, compute the suite's simulation jobs up front.

    The figure benches then read everything from the warmed caches. The
    job list is derived from the benches actually collected, so running
    a single file only prewarms that file's simulations.
    """
    jobs = request.config.getoption("--jobs")
    if jobs <= 1:
        return
    from repro.eval.parallel import jobs_for, prewarm

    fig13_intervals = (100_000, 500_000, 1_000_000)  # see test_fig13_sensitivity
    spec_subset = (
        "gobmk", "h264ref", "hmmer", "libquantum", "mcf", "milc", "soplex", "zeusmp",
    )  # see test_fig14_cache_miss
    per_figure = {
        "fig6": jobs_for("fig6", BENCH_REQUESTS),
        "fig7": jobs_for("fig7", BENCH_REQUESTS),
        "fig8": jobs_for("fig8", BENCH_REQUESTS),
        "fig9": jobs_for("fig9", BENCH_REQUESTS),
        "fig10": jobs_for("fig10", BENCH_REQUESTS),
        "fig11": jobs_for("fig11", BENCH_REQUESTS),
        "fig12": jobs_for("fig12", BENCH_REQUESTS),
        "fig13": jobs_for("fig13", BENCH_REQUESTS, intervals=fig13_intervals),
        "fig14": jobs_for("fig14", SPEC_REQUESTS, benchmarks=spec_subset),
        "fig15": jobs_for("fig15", SPEC_REQUESTS),
        "fig16": jobs_for("fig16", SPEC_REQUESTS),
        "fig17": jobs_for("fig17", SPEC_REQUESTS),
    }
    collected = {item.nodeid for item in request.session.items}
    wanted = []
    for figure, figure_jobs in per_figure.items():
        padded = f"fig{int(figure[3:]):02d}"  # bench files use fig06..fig17
        if any(padded in nodeid for nodeid in collected):
            wanted.extend(figure_jobs)
    if wanted:
        prewarm(wanted, processes=jobs)


def run_once(benchmark, func):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, rounds=1, iterations=1)
