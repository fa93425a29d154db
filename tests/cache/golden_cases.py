"""Pinned outputs of the atomic-mode cache models.

Every case replays a fixed SPEC-like trace through the L1/L2 hierarchy
(or a prefetching L1) and reduces the outcome to a canonical JSON
payload: every :class:`~repro.cache.cache.CacheStats` field of each
level, footprints sorted, plus the
:class:`~repro.cache.prefetch.PrefetchStats` of prefetch cases.
``goldens.json`` holds the sha256 of each payload; the tests in this
package recompute them and require an exact match.

Regenerate the goldens only for a change that is *meant* to alter
simulated results::

    PYTHONPATH=src python -m tests.cache.golden_cases > tests/cache/goldens.json
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import sys
from pathlib import Path
from typing import Callable, Dict

from repro.cache.cache import CacheConfig
from repro.cache.prefetch import NextLinePrefetcher, PrefetchingCache, StridePrefetcher
from repro.sim.cache_driver import run_cache_trace
from repro.workloads import SPEC_BENCHMARKS, workload_trace

GOLDENS_PATH = Path(__file__).with_name("goldens.json")

#: Requests per SPEC-like trace.
REQUESTS = 3_000
SEED = 7

#: L1 configurations: Fig. 14 (16KB 2-way, 32KB 4-way), the Fig. 15/16
#: 32KB associativity sweep, and a direct-mapped 1KB L1 whose conflict
#: misses force dirty write-backs into the L2.
L1_CONFIGS: Dict[str, CacheConfig] = {
    "16KB-2way": CacheConfig(16 * 1024, 2),
    "32KB-2way": CacheConfig(32 * 1024, 2),
    "32KB-4way": CacheConfig(32 * 1024, 4),
    "32KB-8way": CacheConfig(32 * 1024, 8),
    "32KB-16way": CacheConfig(32 * 1024, 16),
    "1KB-1way": CacheConfig(1024, 1),
}

#: The L1 behind which the prefetch cases run.
PREFETCH_CONFIG = CacheConfig(16 * 1024, 2)
PREFETCHERS: Dict[str, Callable[[], object]] = {
    "stride": lambda: StridePrefetcher(degree=2, threshold=2),
    "next-line": lambda: NextLinePrefetcher(degree=2),
}


@functools.lru_cache(maxsize=None)
def trace(name: str):
    return workload_trace(name, num_requests=REQUESTS, seed=SEED)


# -- canonical payloads ------------------------------------------------------


def plain(stats) -> dict:
    """JSON-ready dataclass fields, sets sorted."""
    payload = {}
    for field in dataclasses.fields(stats):
        value = getattr(stats, field.name)
        payload[field.name] = sorted(value) if isinstance(value, set) else value
    return payload


def levels_payload(l1, l2) -> dict:
    """The statistics of both hierarchy levels."""
    return {"l1": plain(l1), "l2": plain(l2)}


def digest(payload: dict) -> str:
    text = json.dumps(payload, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(text.encode()).hexdigest()


def load_goldens() -> Dict[str, str]:
    return json.loads(GOLDENS_PATH.read_text())["cases"]


# -- the cases ---------------------------------------------------------------


def _hierarchy(name: str, l1_config: CacheConfig):
    def run():
        result = run_cache_trace(trace(name), l1_config)
        return levels_payload(result.l1, result.l2)

    return run


def _prefetch(name: str, prefetcher: str):
    def run():
        cache = PrefetchingCache(PREFETCH_CONFIG, PREFETCHERS[prefetcher]())
        cache.run(trace(name))
        return {"demand": plain(cache.demand_stats), "prefetch": plain(cache.stats)}

    return run


def _build_cases() -> Dict[str, Callable[[], dict]]:
    cases: Dict[str, Callable[[], dict]] = {}
    for name in SPEC_BENCHMARKS:
        for label, config in L1_CONFIGS.items():
            cases[f"spec/{name}/{label}"] = _hierarchy(name, config)
        for prefetcher in PREFETCHERS:
            cases[f"prefetch/{name}/{prefetcher}"] = _prefetch(name, prefetcher)
    return cases


CASES = _build_cases()


def main() -> int:
    goldens = {case: digest(run()) for case, run in CASES.items()}
    json.dump({"requests": REQUESTS, "seed": SEED, "cases": goldens}, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
