"""Unit tests for the prefetcher models."""

import pytest

from repro.cache.cache import Cache, CacheConfig
from repro.cache.prefetch import (
    NextLinePrefetcher,
    PrefetchingCache,
    StridePrefetcher,
)
from repro.core.trace import Trace

from ..conftest import req


def make(prefetcher, size=8 * 1024, assoc=4):
    return PrefetchingCache(CacheConfig(size, assoc), prefetcher)


class TestPredictors:
    def test_next_line_on_miss(self):
        prefetcher = NextLinePrefetcher(degree=2)
        assert prefetcher.predict(10, was_miss=True) == [11, 12]
        assert prefetcher.predict(10, was_miss=False) == []

    def test_next_line_validation(self):
        with pytest.raises(ValueError):
            NextLinePrefetcher(degree=0)

    def test_stride_needs_confirmation(self):
        prefetcher = StridePrefetcher(degree=1, threshold=2)
        assert prefetcher.predict(0, True) == []
        assert prefetcher.predict(4, True) == []   # first stride seen
        assert prefetcher.predict(8, True) == []   # 1 confirmation
        assert prefetcher.predict(12, True) == [16]  # confirmed

    def test_stride_resets_on_change(self):
        prefetcher = StridePrefetcher(degree=1, threshold=1)
        prefetcher.predict(0, True)
        prefetcher.predict(4, True)
        assert prefetcher.predict(8, True) == [12]
        assert prefetcher.predict(9, True) == []  # stride broke

    def test_stride_regions_independent(self):
        prefetcher = StridePrefetcher(degree=1, threshold=1, region_blocks=64)
        prefetcher.predict(0, True)
        prefetcher.predict(1, True)
        assert prefetcher.predict(2, True) == [3]
        # A different region has no history.
        assert prefetcher.predict(1000, True) == []

    def test_descending_stride_stops_at_block_zero(self):
        prefetcher = StridePrefetcher(degree=2, threshold=1)
        predictions = [prefetcher.predict(block, True) for block in (5, 4, 3, 2, 1)]
        assert predictions[-2:] == [[1, 0], [0]]

    def test_stride_validation(self):
        with pytest.raises(ValueError):
            StridePrefetcher(degree=0)


class TestPrefetchingCache:
    def test_sequential_stream_benefits(self):
        plain = Cache(CacheConfig(8 * 1024, 4))
        for block in range(256):
            plain.access_block(block, False)

        prefetching = make(NextLinePrefetcher(degree=2))
        for block in range(256):
            prefetching.access_block(block, False)

        assert prefetching.demand_stats.misses < plain.stats.misses
        assert prefetching.stats.useful > 0
        assert prefetching.stats.accuracy > 0.8

    def test_random_stream_no_gain(self):
        import random as rnd

        rng = rnd.Random(0)
        blocks = [rng.randrange(10_000) for _ in range(400)]
        prefetching = make(NextLinePrefetcher(degree=1))
        for block in blocks:
            prefetching.access_block(block, False)
        # Almost no prefetch becomes useful on random traffic.
        assert prefetching.stats.accuracy < 0.3

    def test_stride_prefetcher_on_strided_stream(self):
        prefetching = make(StridePrefetcher(degree=2, threshold=2))
        for i in range(200):
            prefetching.access_block(i * 4, False)
        assert prefetching.stats.useful > 100

    def test_prefetch_fills_do_not_count_as_accesses(self):
        prefetching = make(NextLinePrefetcher(degree=4))
        for block in range(64):
            prefetching.access_block(block, False)
        assert prefetching.demand_stats.accesses == 64

    def test_descending_stream_prefetches_no_negative_block(self):
        prefetching = make(StridePrefetcher(degree=4, threshold=1), size=1024, assoc=2)
        for block in (6, 4, 2, 0):
            prefetching.access_block(block, False)
        assert not any(prefetching.cache.contains(block) for block in range(-8, 0))
        # Block 2 confirmed the stride; block 0 was the only real block to fill.
        assert prefetching.stats.issued == 1
        assert prefetching.stats.useful == 1

    def test_run_over_trace(self):
        prefetching = make(NextLinePrefetcher())
        trace = Trace([req(i, i * 64) for i in range(100)])
        prefetching.run(trace)
        assert prefetching.demand_stats.accesses == 100


class TestFillBlock:
    def test_fill_is_silent(self):
        cache = Cache(CacheConfig(1024, 2))
        cache.fill_block(5)
        assert cache.contains(5)
        assert cache.stats.accesses == 0
        assert cache.stats.misses == 0

    def test_fill_resident_noop(self):
        cache = Cache(CacheConfig(1024, 2))
        cache.access_block(5, True)  # dirty
        result = cache.fill_block(5)
        assert result.hit
        # Dirtiness must survive a redundant fill.
        cache.access_block(6, False)
        evictions = 0
        block = 100
        while cache.contains(5):
            cache.access_block(5 % 16 + 16 * block, False)
            block += 1
            evictions += 1
            assert evictions < 100

    def test_fill_counts_replacements(self):
        cache = Cache(CacheConfig(2 * 64, 2))
        cache.access_block(0, True)
        cache.access_block(1, False)
        result = cache.fill_block(2)
        assert cache.stats.replacements == 1
        assert cache.stats.write_backs == 1
        assert result.writeback_address == 0
