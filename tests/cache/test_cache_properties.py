"""Property-based tests for cache invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.cache import Cache, CacheConfig
from repro.cache.hierarchy import CacheHierarchy
from repro.core.request import MemoryRequest, Operation
from repro.core.trace import Trace


@st.composite
def cache_configs(draw):
    associativity = draw(st.sampled_from([1, 2, 4, 8]))
    sets = draw(st.sampled_from([4, 16, 64]))
    return CacheConfig(size=sets * associativity * 64, associativity=associativity)


@st.composite
def block_streams(draw):
    count = draw(st.integers(1, 300))
    footprint = draw(st.integers(1, 256))
    return [
        (draw(st.integers(0, footprint)), draw(st.booleans())) for _ in range(count)
    ]


class TestCacheInvariants:
    @given(cache_configs(), block_streams())
    @settings(max_examples=50, deadline=None)
    def test_accounting_identities(self, config, stream):
        cache = Cache(config)
        for block, is_write in stream:
            cache.access_block(block, is_write)
        stats = cache.stats
        assert stats.hits + stats.misses == stats.accesses
        assert stats.read_accesses + stats.write_accesses == stats.accesses
        assert stats.read_misses + stats.write_misses == stats.misses
        assert stats.write_backs <= stats.replacements
        assert stats.replacements <= stats.misses

    @given(cache_configs(), block_streams())
    @settings(max_examples=50, deadline=None)
    def test_capacity_bound(self, config, stream):
        cache = Cache(config)
        for block, is_write in stream:
            cache.access_block(block, is_write)
        # Resident blocks never exceed capacity.
        resident = sum(
            1 for block in {b for b, _ in stream} if cache.contains(block)
        )
        assert resident <= config.num_sets * config.associativity

    @given(cache_configs(), block_streams())
    @settings(max_examples=50, deadline=None)
    def test_misses_at_least_cold(self, config, stream):
        cache = Cache(config)
        for block, is_write in stream:
            cache.access_block(block, is_write)
        unique = len({block for block, _ in stream})
        assert cache.stats.misses >= unique or config.num_sets * config.associativity >= unique

    @given(block_streams())
    @settings(max_examples=30, deadline=None)
    def test_bigger_cache_never_worse_fully_assoc(self, stream):
        """With full associativity and LRU, inclusion property holds:
        a larger cache never misses more."""
        unique = max(256, len({b for b, _ in stream}))
        small = Cache(CacheConfig(4 * 64, 4))
        large = Cache(CacheConfig(16 * 64, 16))
        for block, is_write in stream:
            small.access_block(block % 4096, is_write)
            large.access_block(block % 4096, is_write)
        # LRU stack property applies per set only when set counts match;
        # here both have one... small=1 set of 4, large=1 set of 16.
        assert large.stats.misses <= small.stats.misses


    @given(cache_configs(), block_streams())
    @settings(max_examples=50, deadline=None)
    def test_replay_matches_per_block_access(self, config, stream):
        """The batch loop and access_block agree, traffic below included."""
        batch = Cache(config)
        below = batch.replay([b for b, _ in stream], [w for _, w in stream])
        single = Cache(config)
        expected = ([], [])
        for block, is_write in stream:
            result = single.access_block(block, is_write)
            if result.writeback_address is not None:
                expected[0].append(result.writeback_address)
                expected[1].append(True)
            if not result.hit:
                expected[0].append(block)
                expected[1].append(False)
        assert batch.stats == single.stats
        assert below == expected
        # Same residents, dirty bits and recency order in every set.
        assert [list(ways.items()) for ways in batch.sets] == [
            list(ways.items()) for ways in single.sets
        ]


class TestHierarchyInvariants:
    @given(block_streams())
    @settings(max_examples=30, deadline=None)
    def test_l2_accesses_bounded_by_l1_misses(self, stream):
        hierarchy = CacheHierarchy(CacheConfig(1024, 2), CacheConfig(8192, 4))
        trace = Trace(
            [
                MemoryRequest(
                    i,
                    block * 64,
                    Operation.WRITE if is_write else Operation.READ,
                    8,
                )
                for i, (block, is_write) in enumerate(stream)
            ]
        )
        hierarchy.run(trace)
        l1 = hierarchy.l1_stats
        l2 = hierarchy.l2_stats
        # Each L1 miss causes one fill read, plus at most one write-back.
        assert l2.accesses <= l1.misses + l1.write_backs
        assert l2.read_accesses == l1.misses
        assert l2.write_accesses == l1.write_backs
