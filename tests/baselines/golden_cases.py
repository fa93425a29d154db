"""Pinned outputs of the HRD and STM baselines.

Every case fits one baseline to a fixed trace and reduces the result to
canonical JSON: the fitted model's ``to_dict()`` (HRD) or
``profile_to_dict`` (an STM-leaf ``2L-TS`` profile), and the synthetic
trace each one generates. ``goldens.json`` holds the sha256 of each
payload; ``test_goldens.py`` recomputes them and requires an exact match.

The traces are the eight SPEC-like benchmarks of the Fig. 14 cache study
and one Table II workload per device class, at :data:`REQUESTS` requests,
each generated and synthesized with every seed in :data:`SEEDS`.

Regenerate the goldens only for a change that is *meant* to alter a
baseline's output::

    PYTHONPATH=src python -m tests.baselines.golden_cases > tests/baselines/goldens.json
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
from pathlib import Path
from typing import Callable, Dict

from repro.baselines.hrd import HRDModel
from repro.baselines.stm import (
    stm_address_leaf_factory,
    stm_leaf_factory,
    stm_operation_leaf_factory,
)
from repro.core.hierarchy import two_level_ts
from repro.core.profiler import build_profile
from repro.core.serialization import profile_to_dict
from repro.core.synthesis import synthesize
from repro.workloads import workload_trace

GOLDENS_PATH = Path(__file__).with_name("goldens.json")

#: Requests per trace.
REQUESTS = 3_000
#: Each seed generates the trace and seeds its synthesis.
SEEDS = (0, 1)

#: The Fig. 14 cache-study benchmarks (the ``cache_validation`` bench set).
SPEC_TRACES = ("gobmk", "h264ref", "hmmer", "libquantum", "mcf", "milc", "soplex", "zeusmp")
#: One Table II workload per device class (CPU, DPU, GPU, VPU).
TABLE_II_TRACES = ("crypto1", "fbc-tiled1", "trex1", "hevc1")

#: Every STM leaf factory: full STM and the two single-feature hybrids.
STM_FACTORIES = {
    "stm": stm_leaf_factory,
    "stm_address": stm_address_leaf_factory,
    "stm_operation": stm_operation_leaf_factory,
}


@functools.lru_cache(maxsize=None)
def trace(name: str, seed: int):
    return workload_trace(name, num_requests=REQUESTS, seed=seed)


# -- canonical payloads ------------------------------------------------------


def trace_payload(trace) -> list:
    """Every request of ``trace`` as ``[timestamp, address, op, size]``."""
    return [[r.timestamp, r.address, int(r.operation), r.size] for r in trace]


def digest(payload) -> str:
    text = json.dumps(payload, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(text.encode()).hexdigest()


def load_goldens() -> Dict[str, str]:
    return json.loads(GOLDENS_PATH.read_text())["cases"]


@functools.lru_cache(maxsize=None)
def hrd_model(name: str, seed: int) -> HRDModel:
    return HRDModel.fit(trace(name, seed))


@functools.lru_cache(maxsize=None)
def stm_profile(name: str, seed: int, factory: str):
    return build_profile(
        trace(name, seed), two_level_ts(), leaf_factory=STM_FACTORIES[factory], name=name
    )


# -- the cases ---------------------------------------------------------------


def _hrd_fit(name: str, seed: int):
    return lambda: hrd_model(name, seed).to_dict()


def _hrd_synthesize(name: str, seed: int):
    return lambda: trace_payload(hrd_model(name, seed).synthesize(seed))


def _stm_profile(name: str, seed: int, factory: str):
    return lambda: profile_to_dict(stm_profile(name, seed, factory))


def _stm_synthesize(name: str, seed: int, factory: str):
    return lambda: trace_payload(synthesize(stm_profile(name, seed, factory), seed))


def _build_cases() -> Dict[str, Callable[[], object]]:
    cases: Dict[str, Callable[[], object]] = {}
    for name in SPEC_TRACES + TABLE_II_TRACES:
        for seed in SEEDS:
            cases[f"hrd/fit/{name}/{seed}"] = _hrd_fit(name, seed)
            cases[f"hrd/synthesize/{name}/{seed}"] = _hrd_synthesize(name, seed)
            for factory in STM_FACTORIES:
                cases[f"{factory}/profile/{name}/{seed}"] = _stm_profile(name, seed, factory)
                cases[f"{factory}/synthesize/{name}/{seed}"] = _stm_synthesize(
                    name, seed, factory
                )
    return cases


CASES = _build_cases()


def main() -> int:
    goldens = {case: digest(run()) for case, run in CASES.items()}
    json.dump({"requests": REQUESTS, "seeds": list(SEEDS), "cases": goldens}, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
