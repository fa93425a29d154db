"""Worker-pool construction shared by every fan-out in the repo.

Moved here from ``repro.eval.parallel`` so the streaming profiler's
shard fan-out and the experiment prewarm build identical pools:
fork-preferred (cheap workers), observability disabled in children
(their registries would die with the process and a forked JSONL handle
would interleave with the parent's stream).
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor


def default_processes() -> int:
    """Worker count when none is given: all cores, capped at 8."""
    return min(os.cpu_count() or 1, 8)


def _worker_init() -> None:
    from .. import obs

    obs.disable()


def make_pool(processes: int) -> ProcessPoolExecutor:
    """A worker pool with the repo's standard setup (observability
    disabled in workers).

    Every caller builds its pool from a single-threaded main (stream
    shards, prewarm), so fork is safe there and keeps workers cheap;
    spawn works too because jobs and payloads are plain picklable
    dataclasses.
    """
    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
    return ProcessPoolExecutor(
        max_workers=processes, mp_context=context, initializer=_worker_init
    )
