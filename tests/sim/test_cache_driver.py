"""Unit tests for the cache simulation driver."""

from repro.cache.cache import CacheConfig
from repro.core.trace import Trace
from repro.sim.cache_driver import run_cache_trace

from ..conftest import req


class TestRunCacheTrace:
    def test_returns_both_levels(self, linear_trace):
        result = run_cache_trace(linear_trace)
        assert result.l1.accesses == len(linear_trace)
        assert result.l2.accesses == result.l1.misses

    def test_miss_rate_properties(self, linear_trace):
        result = run_cache_trace(linear_trace)
        assert 0 <= result.l1_miss_rate <= 1
        assert 0 <= result.l2_miss_rate <= 1

    def test_order_only(self):
        # Timestamps must not matter in atomic mode.
        a = Trace([req(0, i * 64) for i in range(64)])
        b = Trace([req(i * 1_000_000, i * 64) for i in range(64)])
        assert run_cache_trace(a).l1.misses == run_cache_trace(b).l1.misses

    def test_l1_config_changes_results(self):
        trace = Trace([req(i, (i % 1024) * 64) for i in range(4096)])
        small = run_cache_trace(trace, CacheConfig(16 * 1024, 2))
        large = run_cache_trace(trace, CacheConfig(64 * 1024, 8))
        assert large.l1.misses <= small.l1.misses

    def test_repeat_pass_hits(self):
        blocks = 64
        requests = [req(i, (i % blocks) * 64) for i in range(blocks * 4)]
        result = run_cache_trace(Trace(requests))
        # 4KB working set fits in L1: only cold misses.
        assert result.l1.misses == blocks

    def test_addresses_beyond_column_bounds_replay(self):
        # Request objects allow any non-negative address; columns stop at 2**64.
        trace = Trace([req(0, 2**64 + 64), req(1, 2**64 + 64)])
        result = run_cache_trace(trace)
        assert (result.l1.misses, result.l1.hits) == (1, 1)
        assert result.l1.footprint_blocks == {2**58 + 1}
