"""Pool construction: fork-preferred start method and worker count."""

from __future__ import annotations

import multiprocessing

from repro.engine.pool import default_processes, make_pool


def _method(pool):
    return pool._mp_context.get_start_method()


def test_default_prefers_fork_where_available():
    methods = multiprocessing.get_all_start_methods()
    pool = make_pool(1)
    try:
        expected = "fork" if "fork" in methods else "spawn"
        assert _method(pool) == expected
    finally:
        pool.shutdown(wait=False)


def test_default_processes_is_positive_and_capped():
    assert 1 <= default_processes() <= 8
