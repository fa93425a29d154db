"""Column-block replay through the memory engine must match the goldens.

The goldens (``goldens.json``, see ``golden_cases.py``) were recorded
with the original per-object scalar controller. Here every column-block
entry point — ``Crossbar.feed``, ``simulate_trace`` on columns and on
lazy streams, a streamed synthetic profile — must
reproduce them bit for bit, for every Table II workload and for the
contended, refresh, ChargeCache, hook, observability and no-numpy
configurations.
"""

import json

import pytest

from repro import obs
from repro.core.columnar import ColumnarTrace
from repro.dram.batched import batched_replay_supported
from repro.dram.config import ChargeCacheConfig, DRAMTiming, MemoryConfig
from repro.dram.memory_system import MemorySystem
from repro.interconnect.crossbar import Crossbar
from repro.core.synthesis import synthesize_stream
from repro.sim.driver import simulate_trace
from repro.workloads import TABLE_II_WORKLOADS

from . import golden_cases as g

GOLDENS = g.load_goldens()


def _assert_golden(payload, case):
    assert g.digest(payload) == GOLDENS[case], f"{case}: differs from its golden"


def _stats_payload(stats):
    return {"stats": g.plain(stats)}


class TestWorkloadSweep:
    """Every Table II workload, default config, one column trace."""

    @pytest.mark.parametrize("name", TABLE_II_WORKLOADS)
    def test_bit_identical(self, name):
        stats = simulate_trace(ColumnarTrace.from_trace(g.trace(name)))
        _assert_golden(_stats_payload(stats), f"table2/{name}/default")


#: Label -> golden case suffix: contended queues and watermarks, channel
#: extremes, the plain ``open`` page policy and slow timing.
CONFIG_VARIANTS = {
    "default": "default",
    "tiny-queues": "tiny",
    "tight-watermarks": "tight-watermarks",
    "one-channel": "one-channel",
    "eight-channels": "eight-channels",
    "open-policy": "open",
    "slow-timing": "slow-timing",
}


def _variant(name, label):
    suffix = CONFIG_VARIANTS[label]
    if suffix in g.VARIANTS:
        return f"table2/{name}/{suffix}", g.VARIANTS[suffix]
    return f"sweep/{name}/{suffix}", g.SWEEP_VARIANTS[suffix]


class TestConfigSweep:
    @pytest.mark.parametrize("label", sorted(CONFIG_VARIANTS))
    @pytest.mark.parametrize("name", g.SWEEP_WORKLOADS)
    def test_bit_identical(self, name, label):
        case, config = _variant(name, label)
        memory = g.feed_all(g.trace(name), config)
        _assert_golden(g.memory_payload(memory), case)

    def test_crossbar_variant(self):
        stats = simulate_trace(
            ColumnarTrace.from_trace(g.trace("trex1")), crossbar_config=g.CROSSBAR_VARIANT
        )
        _assert_golden(_stats_payload(stats), "crossbar/trex1")


class TestGatedConfigs:
    """Configurations the old fast path refused now run the one engine."""

    @pytest.mark.parametrize(
        "label,config",
        [
            ("refresh", MemoryConfig(timing=DRAMTiming(t_refi=7_800, t_rfc=160))),
            ("chargecache", MemoryConfig(charge_cache=ChargeCacheConfig())),
        ],
    )
    def test_gate_and_equality(self, label, config):
        assert batched_replay_supported(config)
        assert config == g.VARIANTS[label]
        for name in ("hevc2", "multi-layer"):
            memory = g.feed_all(g.trace(name), config)
            _assert_golden(g.memory_payload(memory), f"table2/{name}/{label}")

    def test_default_config_supported(self):
        assert batched_replay_supported(MemoryConfig())
        assert batched_replay_supported(None)

    def test_event_sink_gates_off(self):
        """With an event sink the block path emits the send path's events."""
        sink = obs.MemoryEventSink()
        registry = obs.enable(sink)
        try:
            memory = g.feed_all(
                g.trace("opencl1", g.REQUESTS // 4), g.SWEEP_VARIANTS["everything"]
            )
            snapshot = registry.snapshot()
        finally:
            obs.disable()
        snapshot.pop("phases_seconds")
        events = [{k: v for k, v in event.items() if k != "t"} for event in sink.events]
        payload = {"stats": g.plain(memory.stats), "registry": snapshot, "events": events}
        _assert_golden(payload, "obs/opencl1/events")

    def test_no_numpy_gates_off(self, monkeypatch):
        monkeypatch.setenv("MOCKTAILS_NO_NUMPY", "1")
        assert batched_replay_supported(MemoryConfig())
        for name in ("cpu-d", "fbc-linear2"):
            block = ColumnarTrace.from_trace(g.trace(name))
            _assert_golden(_stats_payload(simulate_trace(block)), f"table2/{name}/default")
            memory = g.feed_all(g.trace(name), g.VARIANTS["ch_hi"])
            _assert_golden(g.memory_payload(memory), f"table2/{name}/ch_hi")

    def test_completion_hook_forces_scalar_sends(self):
        """The completion hook fires in the same order on the block path."""
        memory = MemorySystem()
        completed = []
        memory.on_request_complete = lambda rid, latency: completed.append([rid, latency])
        crossbar = Crossbar(memory)
        crossbar.feed(ColumnarTrace.from_trace(g.trace("trex2")))
        memory.drain()
        _assert_golden({"stats": g.plain(memory.stats), "completed": completed}, "hook/trex2")


class TestEntryPoints:
    def test_lazy_stream_feed(self):
        stats = simulate_trace(iter(list(g.trace("opencl2"))))
        _assert_golden(_stats_payload(stats), "table2/opencl2/default")

    def test_synthetic_replay(self):
        stats = simulate_trace(synthesize_stream(g.profile("hevc3"), seed=g.SEED + 2))
        _assert_golden(_stats_payload(stats), "synthetic/hevc3")

    def test_incremental_feeds_match_one_shot(self):
        """State persists across calls: blocks of any size, and single
        sends interleaved with blocks, replay like one stream."""
        trace = g.trace("hevc1")
        for block_requests in (1, 300, len(trace)):
            memory = g.feed_all(trace, block_requests=block_requests)
            _assert_golden(g.memory_payload(memory), "table2/hevc1/default")

        memory = MemorySystem(g.VARIANTS["chargecache"])
        crossbar = Crossbar(memory)
        requests = list(trace)
        for start in range(0, len(requests), 250):
            chunk = requests[start : start + 250]
            if start // 250 % 2:
                crossbar.feed(ColumnarTrace.from_trace(chunk))
            else:
                for request in chunk:
                    crossbar.send(request)
        memory.drain()
        _assert_golden(g.memory_payload(memory), "table2/hevc1/chargecache")

    def test_empty_block_is_noop(self):
        memory = MemorySystem()
        Crossbar(memory).feed(ColumnarTrace.from_trace([]))
        memory.drain()
        assert memory.stats.latency_count == 0
        assert memory.engine.last_request_id is None


class TestObservability:
    def test_registry_values_match_scalar(self):
        """Counters and histograms, not just stats, match the send path."""
        registry = obs.enable()
        try:
            memory = g.feed_all(g.trace("hevc1", g.REQUESTS // 4), None)
            snapshot = registry.snapshot()
        finally:
            obs.disable()
        snapshot.pop("phases_seconds")
        payload = {"stats": g.plain(memory.stats), "registry": snapshot}
        _assert_golden(payload, "obs/hevc1/counters")

    def test_phase_timers_recorded(self):
        obs.enable()
        try:
            simulate_trace(ColumnarTrace.from_trace(g.trace("cpu-g", 600)))
            phases = obs.active().phases
        finally:
            obs.disable()
        assert "replay.crossbar" in phases
        assert "replay.dram" in phases


class TestFigureJson:
    def test_fig6_quick_byte_identical(self, tmp_path, monkeypatch):
        """The CLI figure JSON must not depend on numpy being available."""
        from repro.eval.__main__ import main
        from repro.eval.comparison import clear_cache

        outputs = {}
        for no_numpy in ("", "1"):
            monkeypatch.setenv("MOCKTAILS_NO_NUMPY", no_numpy)
            clear_cache()
            path = tmp_path / f"fig6-{no_numpy or 'default'}.json"
            assert main([
                "quick", "fig6", "--requests", "1200",
                "--no-cache", "--json-out", str(path),
            ]) == 0
            outputs[no_numpy] = path.read_bytes()
        clear_cache()
        assert outputs["1"] == outputs[""]
        json.loads(outputs[""])  # sanity: well-formed experiment JSON
