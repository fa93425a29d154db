"""Pinned replay outputs of the memory-system engine.

Every case replays a fixed input through crossbar + memory and reduces
the outcome to a canonical JSON payload: the full
:class:`~repro.dram.stats.MemorySystemStats` (every per-channel
counter), plus the per-controller ChargeCache statistics, per-device
SoC statistics, mesh statistics or the completion-hook sequence where
the case has them. ``goldens.json`` holds the sha256 of each payload;
the tests in this package recompute them through every entry point of
the engine (``Crossbar.send``, ``Crossbar.feed``, the ``simulate_*``
drivers) and require an exact match.

Regenerate the goldens only for a change that is *meant* to alter
simulated results::

    PYTHONPATH=src python -m tests.dram.golden_cases > tests/dram/goldens.json
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import sys
from pathlib import Path
from typing import Callable, Dict

from repro import obs
from repro.core.hierarchy import two_level_ts
from repro.core.profiler import build_profile
from repro.core.synthesis import synthesize_stream
from repro.dram.chargecache import ChargeCacheConfig
from repro.dram.config import DRAMTiming, MemoryConfig
from repro.dram.memory_system import MemorySystem
from repro.interconnect.crossbar import Crossbar, CrossbarConfig
from repro.sim.driver import simulate_profile, simulate_trace
from repro.sim.multi_device import run_soc
from repro.sim.noc_driver import simulate_trace_mesh
from repro.workloads import TABLE_II_WORKLOADS, make_generator

GOLDENS_PATH = Path(__file__).with_name("goldens.json")

#: Requests per workload trace.
REQUESTS = 2_000
SEED = 7

#: Memory configurations replayed for every Table II workload.
VARIANTS: Dict[str, MemoryConfig] = {
    "default": MemoryConfig(),
    "open": MemoryConfig(page_policy="open"),
    "ch_hi": MemoryConfig(address_mapping="ch_hi"),
    "tiny": MemoryConfig(
        read_queue_size=3,
        write_queue_size=4,
        write_high_threshold=0.5,
        write_low_threshold=0.25,
    ),
    "refresh": MemoryConfig(timing=DRAMTiming(t_refi=7_800, t_rfc=160)),
    "chargecache": MemoryConfig(charge_cache=ChargeCacheConfig()),
}

#: Contended configurations replayed for a few representative workloads.
SWEEP_VARIANTS: Dict[str, MemoryConfig] = {
    "tight-watermarks": MemoryConfig(
        write_queue_size=8, write_high_threshold=0.5, write_low_threshold=0.25
    ),
    "one-channel": MemoryConfig(num_channels=1),
    "eight-channels": MemoryConfig(num_channels=8),
    "slow-timing": MemoryConfig(
        timing=DRAMTiming(t_rp=40, t_rcd=30, t_cl=25, t_burst=8)
    ),
    "everything": MemoryConfig(
        page_policy="open",
        read_queue_size=6,
        write_queue_size=10,
        timing=DRAMTiming(t_refi=3_000, t_rfc=200),
        charge_cache=ChargeCacheConfig(capacity=8, expiry_cycles=20_000),
    ),
}
SWEEP_WORKLOADS = ("hevc1", "opencl1", "crypto1", "fbc-tiled1")

CROSSBAR_VARIANT = CrossbarConfig(latency=20, min_gap=4)


@functools.lru_cache(maxsize=None)
def trace(name: str, num_requests: int = REQUESTS):
    return make_generator(name, seed=SEED).generate(num_requests)


@functools.lru_cache(maxsize=None)
def profile(name: str):
    return build_profile(trace(name), two_level_ts(), name=name)


# -- canonical payloads ------------------------------------------------------


def plain(value):
    """JSON-ready form of simulator outputs with a fixed key order."""
    if dataclasses.is_dataclass(value):
        return {f.name: plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return [[plain(key), plain(val)] for key, val in sorted(value.items())]
    if isinstance(value, (list, tuple)):
        return [plain(val) for val in value]
    return value


def memory_payload(memory: MemorySystem) -> dict:
    """Stats of a replayed memory system, plus ChargeCache stats if any."""
    payload = {"stats": plain(memory.stats)}
    if memory.config.charge_cache is not None:
        payload["chargecache"] = [
            plain(controller.charge_cache.stats) for controller in memory.controllers
        ]
    return payload


def digest(payload: dict) -> str:
    text = json.dumps(payload, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(text.encode()).hexdigest()


def load_goldens() -> Dict[str, str]:
    return json.loads(GOLDENS_PATH.read_text())["cases"]


# -- the cases ---------------------------------------------------------------


def send_all(requests, config=None, crossbar_config=None) -> MemorySystem:
    """Replay one request at a time through ``Crossbar.send``."""
    memory = MemorySystem(config)
    crossbar = Crossbar(memory, crossbar_config)
    for request in requests:
        crossbar.send(request)
    memory.drain()
    return memory


def feed_all(requests, config=None, crossbar_config=None, block_requests=700) -> MemorySystem:
    """Replay column blocks through ``Crossbar.feed``."""
    from repro.core.columnar import ColumnarTrace

    memory = MemorySystem(config)
    crossbar = Crossbar(memory, crossbar_config)
    for block in ColumnarTrace.from_trace(requests).iter_blocks(block_requests):
        crossbar.feed(block)
    memory.drain()
    return memory


def _replay(name, config, crossbar_config=None, num_requests=REQUESTS):
    return lambda: memory_payload(send_all(trace(name, num_requests), config, crossbar_config))


def _feedback(name):
    return lambda: {"stats": plain(simulate_profile(profile(name), seed=SEED + 1))}


def _synthetic(name):
    return lambda: {
        "stats": plain(simulate_trace(synthesize_stream(profile(name), seed=SEED + 2)))
    }


def _hook(name):
    def run():
        memory = MemorySystem()
        completed = []
        memory.on_request_complete = lambda rid, latency: completed.append([rid, latency])
        crossbar = Crossbar(memory)
        for request in trace(name):
            crossbar.send(request)
        memory.drain()
        return {"stats": plain(memory.stats), "completed": completed}

    return run


def _soc(config):
    def run():
        result = run_soc(
            {"cpu": trace("cpu-d"), "dpu": trace("fbc-tiled1"), "vpu": profile("hevc1")},
            config,
            seed=SEED,
        )
        return {"stats": plain(result.memory), "devices": plain(result.devices)}

    return run


def _noc(name, config):
    def run():
        result = simulate_trace_mesh(trace(name), config)
        return {
            "stats": plain(result.memory),
            "mesh": plain(result.mesh),
            "nodes": plain(result.controller_nodes),
        }

    return run


def _observed(name, config, with_sink):
    """Registry values and (with a sink) every event, wall clock removed."""

    def run():
        sink = obs.MemoryEventSink() if with_sink else None
        registry = obs.enable(sink)
        try:
            memory = send_all(trace(name, REQUESTS // 4), config)
            snapshot = registry.snapshot()
        finally:
            obs.disable()
        snapshot.pop("phases_seconds")
        payload = {"stats": plain(memory.stats), "registry": snapshot}
        if sink is not None:
            payload["events"] = [
                {key: value for key, value in event.items() if key != "t"}
                for event in sink.events
            ]
        return payload

    return run


def _build_cases() -> Dict[str, Callable[[], dict]]:
    cases: Dict[str, Callable[[], dict]] = {}
    for name in TABLE_II_WORKLOADS:
        for variant, config in VARIANTS.items():
            cases[f"table2/{name}/{variant}"] = _replay(name, config)
        cases[f"table2/{name}/feedback"] = _feedback(name)
    for name in SWEEP_WORKLOADS:
        for variant, config in SWEEP_VARIANTS.items():
            cases[f"sweep/{name}/{variant}"] = _replay(name, config)
    cases["crossbar/trex1"] = _replay("trex1", None, CROSSBAR_VARIANT)
    cases["synthetic/hevc3"] = _synthetic("hevc3")
    cases["hook/trex2"] = _hook("trex2")
    cases["soc/default"] = _soc(None)
    cases["soc/everything"] = _soc(SWEEP_VARIANTS["everything"])
    cases["noc/hevc2/default"] = _noc("hevc2", None)
    cases["noc/manhattan/refresh"] = _noc("manhattan", VARIANTS["refresh"])
    cases["obs/hevc1/counters"] = _observed("hevc1", None, with_sink=False)
    cases["obs/opencl1/events"] = _observed("opencl1", SWEEP_VARIANTS["everything"], with_sink=True)
    return cases


CASES = _build_cases()


def main() -> int:
    goldens = {case: digest(run()) for case, run in CASES.items()}
    json.dump({"requests": REQUESTS, "seed": SEED, "cases": goldens}, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
