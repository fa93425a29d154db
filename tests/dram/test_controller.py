"""Unit tests for the memory controller: FR-FCFS, page policy, write drain."""

import pytest

from repro import obs
from repro.core.request import MemoryRequest, Operation
from repro.dram.address_map import AddressMap, Burst
from repro.dram.config import DRAMTiming, MemoryConfig
from repro.dram.controller import MemoryController
from repro.dram.memory_system import MemorySystem


def make_config(**overrides):
    defaults = dict(num_channels=1)
    defaults.update(overrides)
    return MemoryConfig(**defaults)


def make_burst(address_map, address, op=Operation.READ, arrival=0, request_id=0):
    return Burst(
        address=address,
        operation=op,
        coordinates=address_map.decode(address),
        arrival_time=arrival,
        request_id=request_id,
    )


@pytest.fixture
def setup():
    config = make_config()
    return config, AddressMap(config), MemoryController(config, channel=0)


@pytest.fixture
def observed():
    """Like ``setup``, plus the ``dram.issue`` events in issue order."""
    sink = obs.MemoryEventSink()
    obs.enable(sink)
    try:
        config = make_config()
        yield (
            config,
            AddressMap(config),
            MemoryController(config, channel=0),
            lambda: sink.of_type("dram.issue"),
        )
    finally:
        obs.disable()


class TestQueueing:
    def test_enqueue_records_queue_length_seen(self, setup):
        config, amap, controller = setup
        for i in range(3):
            controller.enqueue(make_burst(amap, i * 32, arrival=i))
        assert controller.stats.read_queue_len_seen == {0: 1, 1: 1, 2: 1}

    def test_queue_full_detection(self, setup):
        config, amap, controller = setup
        for i in range(config.read_queue_size):
            controller.enqueue(make_burst(amap, i * 32, arrival=0))
        assert controller.queue_full(True)
        assert not controller.queue_full(False)

    def test_enqueue_full_raises(self, setup):
        config, amap, controller = setup
        for i in range(config.read_queue_size):
            controller.enqueue(make_burst(amap, i * 32, arrival=0))
        with pytest.raises(RuntimeError):
            controller.enqueue(make_burst(amap, 0x9000, arrival=0))

    def test_drain_empties_queues(self, setup):
        config, amap, controller = setup
        for i in range(10):
            controller.enqueue(make_burst(amap, i * 32, arrival=i))
        controller.drain()
        assert controller.pending == 0
        assert controller.stats.read_bursts == 10


class TestRowHits:
    def test_sequential_same_row_hits(self, setup):
        config, amap, controller = setup
        # Same row, consecutive columns -> first access opens, rest hit.
        for i in range(8):
            controller.enqueue(make_burst(amap, i * 32, arrival=0))
        controller.drain()
        assert controller.stats.read_bursts == 8
        assert controller.stats.read_row_hits == 7

    def test_alternating_rows_reordered_by_frfcfs(self, setup):
        config, amap, controller = setup
        # Same bank, row 0 vs row 1 (one channel: bank stride is row_size,
        # row stride is row_size * banks_per_channel).
        row_stride = config.row_size * config.banks_per_channel
        for i in range(6):
            controller.enqueue(make_burst(amap, (i % 2) * row_stride + (i // 2) * 32, arrival=0))
        controller.drain()
        # FR-FCFS groups the row-0 bursts then the row-1 bursts: 2+2 hits.
        assert controller.stats.read_row_hits == 4

    def test_alternating_rows_no_hits_when_serialized(self, setup):
        config, amap, controller = setup
        row_stride = config.row_size * config.banks_per_channel
        clock = 0
        for i in range(6):
            controller.service(clock)
            controller.drain()  # bank conflict resolved before next arrival
            controller.enqueue(make_burst(amap, (i % 2) * row_stride, arrival=clock))
            clock += 10_000
        controller.drain()
        assert controller.stats.read_row_hits == 0

    def test_write_row_hits_counted_separately(self, setup):
        config, amap, controller = setup
        for i in range(4):
            controller.enqueue(make_burst(amap, i * 32, Operation.WRITE, arrival=0))
        controller.drain()
        assert controller.stats.write_bursts == 4
        assert controller.stats.write_row_hits == 3
        assert controller.stats.read_row_hits == 0


class TestFRFCFS:
    def test_row_hit_scheduled_before_older_miss(self, setup):
        config, amap, controller = setup
        bank_sweep = config.row_size * config.banks_per_channel
        # Three bursts: row0, row1, row0. FR-FCFS services row0 pair
        # back-to-back: the second row0 burst bypasses the row1 burst.
        controller.enqueue(make_burst(amap, 0, arrival=0))
        controller.enqueue(make_burst(amap, bank_sweep, arrival=0))
        controller.enqueue(make_burst(amap, 32, arrival=0))
        controller.drain()
        assert controller.stats.read_row_hits == 1

    def test_fcfs_among_misses(self):
        config = make_config()
        memory = MemorySystem(config)
        completed = []
        memory.on_request_complete = lambda rid, latency: completed.append(rid)
        bank_sweep = config.row_size * config.banks_per_channel
        for row in (0, 2, 4):  # one bank, three rows: every access misses
            memory.submit(MemoryRequest(0, row * bank_sweep, Operation.READ, 32))
        memory.drain()
        assert completed == [0, 1, 2]


class TestWriteDrain:
    def test_reads_prioritized_below_watermark(self, observed):
        config, amap, controller, events = observed
        below = config.write_high_watermark - 1
        for i in range(below):
            controller.enqueue(make_burst(amap, i * 32, Operation.WRITE, arrival=0))
        controller.enqueue(make_burst(amap, 0x100000, arrival=0))
        controller.drain()
        # Below the watermark the pending read is serviced before any
        # write (writes drain opportunistically only once reads are done).
        assert events()[0]["is_read"] is True
        assert controller.stats.read_bursts == 1

    def test_high_watermark_triggers_drain(self, setup):
        config, amap, controller = setup
        for i in range(config.write_high_watermark):
            controller.enqueue(make_burst(amap, i * 32, Operation.WRITE, arrival=0))
        controller.service(10_000)
        assert controller.stats.write_bursts > 0

    def test_drain_stops_at_low_watermark_when_reads_pending(self, observed):
        config, amap, controller, events = observed
        for i in range(config.write_high_watermark):
            controller.enqueue(make_burst(amap, i * 32, Operation.WRITE, arrival=0))
        for i in range(4):
            controller.enqueue(make_burst(amap, 0x200000 + i * 32, arrival=0))
        controller.drain()
        # The high watermark triggers a drain down to the low watermark,
        # then the pending reads preempt the remaining writes.
        writes_before_first_read = [event["is_read"] for event in events()].index(True)
        expected = config.write_high_watermark - config.write_low_watermark
        assert writes_before_first_read == expected
        assert controller.stats.read_bursts == 4

    def test_reads_per_turnaround_recorded(self, setup):
        config, amap, controller = setup
        for i in range(8):
            controller.enqueue(make_burst(amap, i * 32, arrival=0))
        for i in range(config.write_high_watermark):
            controller.enqueue(make_burst(amap, 0x100000 + i * 32, Operation.WRITE, arrival=0))
        controller.drain()
        assert controller.stats.reads_per_turnaround
        assert sum(controller.stats.reads_per_turnaround) <= 8

    def test_idle_writes_drained_opportunistically(self, setup):
        config, amap, controller = setup
        controller.enqueue(make_burst(amap, 0, Operation.WRITE, arrival=0))
        controller.service(10_000)
        assert controller.stats.write_bursts == 1


class TestPagePolicy:
    def test_open_adaptive_precharges_without_pending_hit(self):
        config = make_config(page_policy="open_adaptive")
        amap = AddressMap(config)
        controller = MemoryController(config, channel=0)
        # Two bursts to the same row arriving far apart: with no pending
        # same-row burst at issue time, the row is closed in between.
        controller.enqueue(make_burst(amap, 0, arrival=0))
        controller.service(1_000)
        controller.enqueue(make_burst(amap, 32, arrival=1_000))
        controller.drain()
        assert controller.stats.read_row_hits == 0

    def test_plain_open_keeps_row(self):
        config = make_config(page_policy="open")
        amap = AddressMap(config)
        controller = MemoryController(config, channel=0)
        controller.enqueue(make_burst(amap, 0, arrival=0))
        controller.service(1_000)
        controller.enqueue(make_burst(amap, 32, arrival=1_000))
        controller.drain()
        assert controller.stats.read_row_hits == 1

    def test_open_adaptive_keeps_row_for_pending_hit(self):
        config = make_config(page_policy="open_adaptive")
        amap = AddressMap(config)
        controller = MemoryController(config, channel=0)
        controller.enqueue(make_burst(amap, 0, arrival=0))
        controller.enqueue(make_burst(amap, 32, arrival=0))
        controller.drain()
        assert controller.stats.read_row_hits == 1


class TestTiming:
    def test_completion_callback_ordering(self, observed):
        config, amap, controller, events = observed
        controller.enqueue(make_burst(amap, 0, arrival=0, request_id=0))
        controller.enqueue(make_burst(amap, 32, arrival=0, request_id=1))
        controller.drain()
        finishes = [event["finish"] for event in events()]
        assert len(finishes) == 2
        assert finishes[0] < finishes[1]

    def test_row_miss_slower_than_hit(self, observed):
        config, amap, controller, events = observed
        controller.enqueue(make_burst(amap, 0, arrival=0))
        controller.enqueue(make_burst(amap, 32, arrival=0))  # hit
        controller.drain()
        completions = [event["finish"] for event in events()]
        first_gap = completions[0]
        second_gap = completions[1] - completions[0]
        # The opening access pays tRCD; the hit only pays tBURST.
        assert second_gap < first_gap

    def test_service_until_respects_time_limit(self, setup):
        config, amap, controller = setup
        controller.enqueue(make_burst(amap, 0, arrival=500))
        controller.service(100)
        assert controller.stats.read_bursts == 0
        controller.service(10_000)
        assert controller.stats.read_bursts == 1

    def test_service_one_on_empty_raises(self, setup):
        _, _, controller = setup
        with pytest.raises(RuntimeError):
            controller.service()

    def test_per_bank_counts(self, setup):
        config, amap, controller = setup
        bank_stride = config.row_size * config.num_channels
        controller.enqueue(make_burst(amap, 0, arrival=0))
        controller.enqueue(make_burst(amap, bank_stride, arrival=0))
        controller.drain()
        assert len(controller.stats.per_bank_reads) == 2


class TestRefresh:
    def test_disabled_by_default(self, setup):
        config, amap, controller = setup
        for i in range(10):
            controller.enqueue(make_burst(amap, i * 32, arrival=i))
        controller.drain()
        assert controller.stats.refreshes == 0

    def test_refresh_windows_taken(self):
        config = make_config(timing=DRAMTiming(t_refi=1_000, t_rfc=100))
        amap = AddressMap(config)
        controller = MemoryController(config, channel=0)
        clock = 0
        for i in range(20):
            controller.service(clock)
            controller.enqueue(make_burst(amap, i * 32, arrival=clock))
            clock += 500
        controller.drain()
        # ~20 * 500 cycles of activity -> about 10 refresh intervals.
        assert controller.stats.refreshes >= 5

    def test_refresh_closes_rows(self):
        config = make_config(
            timing=DRAMTiming(t_refi=1_000, t_rfc=100), page_policy="open"
        )
        amap = AddressMap(config)
        controller = MemoryController(config, channel=0)
        controller.enqueue(make_burst(amap, 0, arrival=0))
        controller.service(10)
        # Next access to the same row lands after a refresh: row closed.
        controller.enqueue(make_burst(amap, 32, arrival=5_000))
        controller.drain()
        assert controller.stats.read_row_hits == 0

    def test_refresh_adds_latency(self):
        from repro.core.trace import Trace
        from repro.sim.driver import simulate_trace
        from ..conftest import req

        trace = Trace([req(i * 800, (i % 64) * 32, "R", 32) for i in range(400)])
        plain = simulate_trace(trace, MemoryConfig())
        refreshed = simulate_trace(
            trace,
            MemoryConfig(timing=DRAMTiming(t_refi=2_000, t_rfc=200)),
        )
        assert refreshed.avg_access_latency > plain.avg_access_latency
