"""Draw-for-draw checks of the baselines' fast paths against references.

Each fast path must consume the random stream exactly as the plain
formulation it replaces: the same number of ``random()`` calls and the
same pick for every one of them.
"""

import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.reuse import COLD, LRUStack, ReuseHistogram, stack_distances
from repro.baselines.stm import StrideTable


class ReferenceStrideTable:
    """``StrideTable`` sampling as first written: re-sort and re-weigh a
    row on every draw, consume counts by deleting exhausted strides."""

    def __init__(self, rows, global_counts, max_history):
        self.rows = rows
        self.global_counts = global_counts
        self.max_history = max_history
        self._remaining = {}

    @staticmethod
    def _sample(counter, rng):
        values = sorted(counter.keys())
        weights = [counter[v] for v in values]
        return rng.choices(values, weights=weights, k=1)[0]

    def next_stride(self, history, rng):
        history = tuple(history[-self.max_history :])
        for start in range(len(history)):
            key = history[start:]
            row = self._remaining.get(key)
            if row is None and key in self.rows:
                row = self._remaining[key] = Counter(self.rows[key])
            if row and sum(row.values()) > 0:
                stride = self._sample(row, rng)
                row[stride] -= 1
                if row[stride] <= 0:
                    del row[stride]
                return stride
        if self.global_counts:
            return self._sample(self.global_counts, rng)
        return 0


def reference_stack_distances(items):
    """O(n^2): distinct items strictly between an access and the last one."""
    distances = []
    for position, item in enumerate(items):
        earlier = items[:position]
        if item not in earlier:
            distances.append(COLD)
            continue
        previous = position - 1 - earlier[::-1].index(item)
        distances.append(len(set(items[previous + 1 : position])))
    return distances


distances = st.integers(min_value=-1, max_value=40)


@given(
    initial=st.lists(distances, max_size=30),
    steps=st.lists(st.one_of(st.none(), distances), max_size=60),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_reuse_histogram_sample_matches_choices(initial, steps, seed):
    """``None`` steps draw; integer steps ``add`` and must drop the cache."""
    histogram = ReuseHistogram.fit(initial)
    fast_rng, reference_rng = random.Random(seed), random.Random(seed)
    for step in steps:
        if step is not None:
            histogram.add(step)
            continue
        counts = histogram.counts
        if counts:
            keys = sorted(counts)
            expected = reference_rng.choices(keys, weights=[counts[k] for k in keys])[0]
        else:
            expected = COLD
        assert histogram.sample(fast_rng) == expected
    assert fast_rng.getstate() == reference_rng.getstate()


@given(
    seed=st.integers(0, 2**32 - 1),
    accesses=st.integers(900, 2300),
    footprint=st.integers(1, 1500),
)
@settings(max_examples=25, deadline=None)
def test_lru_stack_matches_naive_list_across_growth(seed, accesses, footprint):
    """Enough accesses to cross the 1024 -> 2048 slot growth, with removals."""
    rng = random.Random(seed)
    stack = LRUStack()
    naive = []  # most recent first
    for _ in range(accesses):
        item = rng.randrange(footprint)
        if naive and rng.random() < 0.05:
            victim = naive[rng.randrange(len(naive))]
            stack.remove(victim)
            naive.remove(victim)
            continue
        expected = naive.index(item) if item in naive else COLD
        assert stack.access(item) == expected
        if item in naive:
            naive.remove(item)
        naive.insert(0, item)
        depth = rng.randrange(len(naive))
        assert stack.at_depth(depth) == naive[depth]
        assert stack.depth_of(naive[depth]) == depth
    assert len(stack) == len(naive)
    assert [stack.at_depth(depth) for depth in range(len(naive))] == naive


@given(st.lists(st.integers(0, 30), max_size=300))
@settings(max_examples=200, deadline=None)
def test_stack_distances_match_quadratic_reference(items):
    assert stack_distances(items) == reference_stack_distances(items)


@given(
    strides=st.lists(st.sampled_from([-128, -64, 0, 8, 64, 64, 128, 4096]), max_size=80),
    max_history=st.integers(1, 8),
    probes=st.lists(st.lists(st.sampled_from([-64, 0, 64, 999]), max_size=9), max_size=20),
    seed=st.integers(0, 2**32 - 1),
    draws=st.integers(0, 120),
)
@settings(max_examples=200, deadline=None)
def test_stride_table_matches_reference(strides, max_history, probes, seed, draws):
    """A generation-like walk, then arbitrary histories (unseen ones fall back)."""
    fitted = StrideTable.fit(strides, max_history)
    table = StrideTable(fitted.rows, fitted.global_counts, max_history)
    reference = ReferenceStrideTable(fitted.rows, fitted.global_counts, max_history)
    fast_rng, reference_rng = random.Random(seed), random.Random(seed)
    history = []
    for _ in range(draws):
        stride = table.next_stride(history, fast_rng)
        assert stride == reference.next_stride(history, reference_rng)
        history.append(stride)
    for probe in probes:
        assert table.next_stride(probe, fast_rng) == reference.next_stride(probe, reference_rng)
    assert fast_rng.getstate() == reference_rng.getstate()
    # Consuming counts never touches the fitted rows.
    assert StrideTable.fit(strides, max_history).rows == fitted.rows


def test_stride_table_fit_rows_in_history_length_order():
    """Rows are created shortest history first, one request at a time."""
    table = StrideTable.fit([1, 2, 3, 4], max_history=3)
    assert list(table.rows) == [(1,), (2,), (1, 2), (3,), (2, 3), (1, 2, 3)]
    assert table.rows[(1, 2)] == Counter({3: 1})
