"""Observability must never change results — only observe them.

Runs the same experiments with the registry disabled and enabled (with
an in-memory event sink) and asserts the figure statistics are
bit-identical, while the enabled run actually accumulated non-trivial
counters and events.
"""

import pytest

from repro import obs
from repro.core.hierarchy import two_level_ts
from repro.core.profiler import build_profile
from repro.core.synthesis import synthesize
from repro.eval import experiments
from repro.eval.comparison import baseline_trace, clear_cache
from repro.sim.driver import simulate_trace

SMALL = 1_200


def _clear_caches():
    clear_cache()
    experiments._SPEC_SYNTH_CACHE.clear()
    experiments._SPEC_SIZE_CACHE.clear()


@pytest.fixture(autouse=True)
def _isolated_registry():
    obs.disable()
    yield
    obs.disable()


class TestFigureEquivalence:
    def test_figure_6_bit_identical(self):
        _clear_caches()
        disabled = experiments.figure_6(SMALL)

        _clear_caches()
        sink = obs.MemoryEventSink()
        obs.enable(sink)
        try:
            enabled = experiments.figure_6(SMALL)
            counters = obs.active().snapshot()["counters"]
        finally:
            obs.disable()

        assert enabled == disabled
        # The run must actually have been observed, not skipped.
        assert counters["dram.enqueued"] > 0
        assert counters["dram.issued"] > 0
        assert counters["synthesis.requests_emitted"] > 0
        assert counters["eval.runs.computed"] > 0
        assert sink.of_type("job.start") and sink.of_type("job.finish")

    def test_figure_10_bit_identical(self):
        _clear_caches()
        disabled = experiments.figure_10(SMALL)

        _clear_caches()
        obs.enable()
        try:
            enabled = experiments.figure_10(SMALL)
        finally:
            obs.disable()

        assert enabled == disabled


class TestReplayEquivalence:
    def test_synthesis_and_replay_bit_identical(self):
        trace = baseline_trace("hevc1", SMALL)
        profile = build_profile(trace, two_level_ts(), name="hevc1")
        disabled_synthetic = synthesize(profile, seed=1)
        disabled_stats = simulate_trace(disabled_synthetic)

        obs.enable()
        try:
            enabled_synthetic = synthesize(profile, seed=1)
            enabled_stats = simulate_trace(enabled_synthetic)
            counters = obs.active().snapshot()["counters"]
        finally:
            obs.disable()

        assert enabled_synthetic == disabled_synthetic
        assert enabled_stats == disabled_stats
        assert counters["synthesis.requests_emitted"] == len(trace)
        assert counters["dram.enqueued"] > 0

    def test_cache_counters_accumulate(self):
        from repro.cache.cache import CacheConfig
        from repro.cache.hierarchy import CacheHierarchy
        from repro.core.request import MemoryRequest, Operation
        from repro.core.trace import Trace

        trace = Trace([MemoryRequest(0, block * 64, Operation.READ, 64) for block in range(32)])
        obs.enable()
        try:
            hierarchy = CacheHierarchy(CacheConfig(size=4096, associativity=2))
            for _ in range(2):  # second pass hits: 32 blocks fit in 64
                hierarchy.run(trace)
            counters = obs.active().snapshot()["counters"]
        finally:
            obs.disable()

        assert counters["cache.l1.misses"] == 32
        assert counters["cache.l1.hits"] == 32
        assert counters["cache.l2.misses"] == 32
        assert counters["cache.l2.hits"] == 0
