"""Unit tests for the set-associative cache."""

import pytest

from repro.cache.cache import Cache, CacheConfig

from ..conftest import req


def make_cache(size=1024, assoc=2, block=64):
    return Cache(CacheConfig(size=size, associativity=assoc, block_size=block))


class TestCacheConfig:
    def test_num_sets(self):
        assert CacheConfig(32 * 1024, 4, 64).num_sets == 128

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            CacheConfig(1000, 3, 64)  # not a multiple
        with pytest.raises(ValueError):
            CacheConfig(0, 1, 64)
        with pytest.raises(ValueError):
            CacheConfig(1024, 2, 48)  # block not power of two

    def test_replacement_is_always_lru(self):
        with pytest.raises(TypeError):
            CacheConfig(1024, 2, replacement="fifo")


class TestBasicBehaviour:
    def test_cold_miss_then_hit(self):
        cache = make_cache()
        assert not cache.access_block(0, False).hit
        assert cache.access_block(0, False).hit

    def test_distinct_blocks_miss(self):
        cache = make_cache()
        cache.access_block(0, False)
        assert not cache.access_block(1, False).hit

    def test_contains(self):
        cache = make_cache()
        cache.access_block(5, False)
        assert cache.contains(5)
        assert not cache.contains(6)

    def test_stats_accumulate(self):
        cache = make_cache()
        cache.access_block(0, False)
        cache.access_block(0, True)
        cache.access_block(1, True)
        stats = cache.stats
        assert stats.accesses == 3
        assert stats.misses == 2
        assert stats.hits == 1
        assert stats.read_accesses == 1
        assert stats.write_accesses == 2
        assert stats.write_misses == 1
        assert stats.miss_rate == pytest.approx(2 / 3)

    def test_footprint(self):
        cache = make_cache()
        for block in (0, 1, 0, 2):
            cache.access_block(block, False)
        assert cache.stats.footprint_bytes == 3


class TestEvictionAndWriteback:
    def test_lru_eviction(self):
        cache = make_cache(size=2 * 64, assoc=2, block=64)  # 1 set, 2 ways
        cache.access_block(0, False)
        cache.access_block(1, False)
        cache.access_block(0, False)  # 0 is now MRU
        result = cache.access_block(2, False)  # evicts 1 (LRU)
        assert result.victim_address == 1
        assert cache.contains(0) and not cache.contains(1)

    def test_clean_eviction_no_writeback(self):
        cache = make_cache(size=2 * 64, assoc=2)
        cache.access_block(0, False)
        cache.access_block(1, False)
        result = cache.access_block(2, False)
        assert result.writeback_address is None
        assert cache.stats.write_backs == 0
        assert cache.stats.replacements == 1

    def test_dirty_eviction_writes_back(self):
        cache = make_cache(size=2 * 64, assoc=2)
        cache.access_block(0, True)  # dirty
        cache.access_block(1, False)
        result = cache.access_block(2, False)
        assert result.writeback_address == 0
        assert cache.stats.write_backs == 1

    def test_read_after_write_keeps_dirty(self):
        cache = make_cache(size=2 * 64, assoc=2)
        cache.access_block(0, True)
        cache.access_block(0, False)  # read hit must not clean the line
        cache.access_block(1, False)
        result = cache.access_block(2, False)
        assert result.writeback_address == 0

    def test_replacements_counted_only_when_full(self):
        cache = make_cache(size=4 * 64, assoc=4)
        for block in range(4):
            cache.access_block(block, False)
        assert cache.stats.replacements == 0
        cache.access_block(99, False)
        assert cache.stats.replacements == 1


class TestSetMapping:
    def test_blocks_map_to_distinct_sets(self):
        cache = make_cache(size=4 * 64, assoc=1)  # 4 sets, direct mapped
        for block in range(4):
            cache.access_block(block, False)
        # All four coexist: no conflict.
        assert all(cache.contains(block) for block in range(4))

    def test_conflict_in_direct_mapped(self):
        cache = make_cache(size=4 * 64, assoc=1)
        cache.access_block(0, False)
        cache.access_block(4, False)  # same set (4 sets)
        assert not cache.contains(0)
        assert cache.contains(4)


class TestRequestInterface:
    def test_request_spanning_blocks(self):
        cache = make_cache()
        results = cache.access(req(0, 0x3C, "R", 16))  # crosses 0x40
        assert len(results) == 2

    def test_request_within_block(self):
        cache = make_cache()
        results = cache.access(req(0, 0x10, "W", 8))
        assert len(results) == 1
        assert cache.stats.write_accesses == 1


class TestHigherAssociativityHelps:
    def test_associativity_fixes_conflicts(self):
        # Ping-pong between two conflicting blocks.
        direct = make_cache(size=4 * 64, assoc=1)
        for _ in range(10):
            direct.access_block(0, False)
            direct.access_block(4, False)
        set_assoc = make_cache(size=4 * 64, assoc=2)
        for _ in range(10):
            set_assoc.access_block(0, False)
            set_assoc.access_block(2, False)  # same set with 2 sets
        assert set_assoc.stats.misses < direct.stats.misses
