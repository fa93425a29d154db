"""Unit tests for the DRAM simulation drivers."""

import pytest

from repro.core.profiler import build_profile
from repro.core.hierarchy import two_level_ts
from repro.dram.config import MemoryConfig
from repro.interconnect.crossbar import CrossbarConfig
from repro.core.synthesis import synthesize_stream
from repro.sim.driver import simulate_profile, simulate_trace


class TestSimulateTrace:
    def test_burst_conservation(self, mixed_trace):
        stats = simulate_trace(mixed_trace)
        # 24 reads x 64B (2 bursts) + 24 writes x 32B (1-2 bursts).
        assert stats.read_bursts == 48
        assert stats.write_bursts >= 24
        assert stats.latency_count == len(mixed_trace)

    def test_config_respected(self, mixed_trace):
        config = MemoryConfig(num_channels=2)
        stats = simulate_trace(mixed_trace, config)
        assert len(stats.channels) == 2

    def test_crossbar_config_respected(self, bursty_trace):
        fast = simulate_trace(bursty_trace, crossbar_config=CrossbarConfig(latency=0))
        slow = simulate_trace(bursty_trace, crossbar_config=CrossbarConfig(latency=100))
        assert slow.avg_access_latency > fast.avg_access_latency

    def test_row_hits_for_sequential(self, linear_trace):
        stats = simulate_trace(linear_trace)
        assert stats.read_row_hits > 0


class TestSimulateProfileAndSynthetic:
    def test_synthetic_burst_counts_match_baseline(self, bursty_trace):
        baseline = simulate_trace(bursty_trace)
        profile = build_profile(bursty_trace, two_level_ts(100_000))
        synthetic = simulate_trace(synthesize_stream(profile, seed=1))
        assert synthetic.read_bursts == baseline.read_bursts
        assert synthetic.write_bursts == baseline.write_bursts

    def test_feedback_mode_processes_everything(self, bursty_trace):
        profile = build_profile(bursty_trace, two_level_ts(100_000))
        stats = simulate_profile(profile, seed=1)
        assert stats.latency_count == len(bursty_trace)

    def test_feedback_applies_under_pressure(self, bursty_trace):
        config = MemoryConfig(num_channels=1, read_queue_size=4)
        profile = build_profile(bursty_trace, two_level_ts(100_000))
        stats = simulate_profile(profile, config, seed=1)
        assert stats.latency_count == len(bursty_trace)
        assert stats.backpressure_delay > 0
