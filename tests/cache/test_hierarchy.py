"""Unit tests for the two-level cache hierarchy."""

import pytest

from repro import obs
from repro.cache.cache import CacheConfig
from repro.cache.hierarchy import CacheHierarchy, paper_l1_config, paper_l2_config
from repro.core.columnar import ColumnarTrace
from repro.core.trace import Trace

from ..conftest import req


def run(hierarchy, *requests):
    hierarchy.run(Trace(list(requests)))
    return hierarchy


class TestConfigs:
    def test_paper_l2(self):
        config = paper_l2_config()
        assert config.size == 256 * 1024
        assert config.associativity == 8
        assert config.block_size == 64

    def test_paper_l1_defaults(self):
        config = paper_l1_config()
        assert config.size == 32 * 1024
        assert config.associativity == 4

    def test_block_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="share a block size"):
            CacheHierarchy(
                CacheConfig(1024, 2, 32), CacheConfig(4096, 2, 64)
            )

    def test_chunk_size_must_be_positive(self):
        with pytest.raises(ValueError, match="chunk_requests"):
            CacheHierarchy().run(Trace([req(0, 0)]), chunk_requests=0)


class TestAccessFlow:
    def test_l1_hit_does_not_touch_l2(self):
        hierarchy = run(CacheHierarchy(), req(0, 0x100))
        l2_before = hierarchy.l2_stats.accesses
        run(hierarchy, req(1, 0x100))
        assert hierarchy.l2_stats.accesses == l2_before

    def test_l1_miss_reads_l2(self):
        hierarchy = run(CacheHierarchy(), req(0, 0x100))
        assert hierarchy.l2_stats.accesses == 1
        assert hierarchy.l2_stats.read_accesses == 1

    def test_dirty_l1_eviction_writes_l2(self):
        # Tiny L1 so evictions happen fast.
        hierarchy = run(
            CacheHierarchy(CacheConfig(2 * 64, 2, 64)),
            req(0, 0x000, "W"),
            req(1, 0x1000),
            req(2, 0x2000),  # evicts dirty 0x000
        )
        assert hierarchy.l1_stats.write_backs == 1
        assert hierarchy.l2_stats.write_accesses == 1
        assert 0 in hierarchy.l2_stats.footprint_blocks

    def test_run_processes_whole_trace(self):
        hierarchy = run(CacheHierarchy(), *[req(i, i * 64) for i in range(100)])
        assert hierarchy.l1_stats.accesses == 100

    def test_l2_filters_repeat_misses(self):
        # Working set bigger than L1, smaller than L2: second pass still
        # misses L1 but hits L2.
        blocks = 64  # 4KB working set
        hierarchy = run(
            CacheHierarchy(CacheConfig(1024, 2, 64)),
            *[req(0, i * 64) for _ in range(2) for i in range(blocks)],
        )
        assert hierarchy.l1_stats.misses >= blocks
        assert hierarchy.l2_stats.hits > 0

    def test_small_requests_one_block(self):
        hierarchy = run(CacheHierarchy(), req(0, 0x104, "R", 4))
        assert hierarchy.l1_stats.accesses == 1

    def test_straddling_request_two_blocks(self):
        hierarchy = run(CacheHierarchy(), req(0, 0x3C, "R", 16))
        assert hierarchy.l1_stats.accesses == 2

    @pytest.mark.parametrize("columnar", [False, True])
    def test_straddling_request_touches_every_block(self, columnar):
        trace = Trace([req(0, 60, "W", 136)])  # 64B blocks: covers blocks 0..3
        hierarchy = CacheHierarchy()
        hierarchy.run(ColumnarTrace.from_trace(trace) if columnar else trace)
        assert hierarchy.l1_stats.footprint_blocks == {0, 1, 2, 3}
        assert hierarchy.l1_stats.write_accesses == 4

    def test_empty_trace(self):
        hierarchy = run(CacheHierarchy())
        hierarchy.run(ColumnarTrace.empty())
        assert hierarchy.l1_stats.accesses == hierarchy.l2_stats.accesses == 0


class TestRepeatedRuns:
    TRACE = Trace(
        [req(i, (i * 7919 % 4096) * 64, "W" if i % 3 == 0 else "R") for i in range(3000)]
    )

    def test_runs_accumulate_like_one_concatenated_run(self):
        split = CacheHierarchy(CacheConfig(1024, 1))
        split.run(self.TRACE)
        split.run(self.TRACE)
        whole = run(CacheHierarchy(CacheConfig(1024, 1)), *self.TRACE, *self.TRACE)
        assert split.l1_stats == whole.l1_stats
        assert split.l2_stats == whole.l2_stats
        assert whole.l1_stats.write_backs > 0

    def test_obs_counters_total_every_run(self):
        registry = obs.enable()
        try:
            hierarchy = CacheHierarchy(CacheConfig(1024, 1))
            hierarchy.run(self.TRACE)
            hierarchy.run(ColumnarTrace.from_trace(self.TRACE))
            counters = dict(registry.counters())
        finally:
            obs.disable()
        for label, stats in (("l1", hierarchy.l1_stats), ("l2", hierarchy.l2_stats)):
            assert counters[f"cache.{label}.hits"] == stats.hits
            assert counters[f"cache.{label}.misses"] == stats.misses
            assert counters[f"cache.{label}.write_backs"] == stats.write_backs
        assert counters["cache.l1.write_backs"] > 0

    def test_obs_counters_registered_on_empty_run(self):
        registry = obs.enable()
        try:
            CacheHierarchy().run(Trace())
            counters = dict(registry.counters())
        finally:
            obs.disable()
        assert {name for name in counters if name.startswith("cache.")} == {
            f"cache.{level}.{kind}"
            for level in ("l1", "l2")
            for kind in ("hits", "misses", "write_backs")
        }
