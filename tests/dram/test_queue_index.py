"""FR-FCFS pick order and the engine's per-(bank, row) queue index.

Each channel of :class:`~repro.dram.batched.MemoryEngine` keeps its
queues as FIFO dicts plus a ``(bank, row)`` index whose stale heads are
dropped lazily. These tests pin the index and every scheduling pick to
a brute-force reference through random enqueue/service workloads, and
check the engine end to end against the same request stream.
"""

import random

import pytest

from repro.core.request import MemoryRequest, Operation
from repro.dram.address_map import Burst, DramCoordinates
from repro.dram.config import MemoryConfig
from repro.dram.controller import MemoryController
from repro.dram.memory_system import MemorySystem


def _burst(arrival, bank=0, row=0, op=Operation.READ, rank=0):
    coords = DramCoordinates(channel=0, rank=rank, bank=bank, row=row, column=0)
    return Burst(
        address=arrival,
        operation=op,
        coordinates=coords,
        arrival_time=arrival,
        request_id=arrival,
    )


def _controller(**overrides):
    config = MemoryConfig(num_channels=1, **overrides)
    return config, MemoryController(config, channel=0)


def _live_index(entries, byrow):
    """The row index with stale sequence numbers filtered out."""
    live = {}
    for key, seqs in byrow.items():
        alive = [seq for seq in seqs if seq in entries]
        if alive:
            live[key] = alive
    return live


def _reference_index(entries):
    """Brute-force ``(bank, row)`` -> queued sequence numbers, FIFO order."""
    index = {}
    for seq, (_arrival, bank, row, _rid) in entries.items():
        index.setdefault((bank, row), []).append(seq)
    return index


def _reference_pick(state, config):
    """Brute-force FR-FCFS: (queue, seq) the next issue must take."""
    reads, writes = state.reads, state.writes
    low, high = config.write_low_watermark, config.write_high_watermark
    if state.draining and writes and not (len(writes) <= low and reads):
        queue = writes
    elif len(writes) >= high or not reads:
        queue = writes
    else:
        queue = reads
    decision = max(state.bus_free, min(entry[0] for entry in queue.values()))
    open_rows = state.open_rows
    for seq, (arrival, bank, row, _rid) in queue.items():
        if open_rows.get(bank) == row and arrival <= decision:
            return queue, seq
    return queue, next(iter(queue))


def test_append_pop_keeps_fifo_and_row_index():
    _, controller = _controller(page_policy="open")
    state = controller.engine.channels[0]
    first = _burst(10, bank=0, row=5)
    second = _burst(11, bank=1, row=5)
    third = _burst(12, bank=0, row=5)
    for burst in (first, second, third):
        controller.enqueue(burst)

    assert controller.read_queue_length == 3
    assert [entry[0] for entry in state.reads.values()] == [10, 11, 12]
    assert _live_index(state.reads, state.read_rows) == {(0, 5): [0, 2], (1, 5): [1]}

    # Nothing open: the FIFO-oldest burst goes first and opens (0, 5) ...
    controller.service()
    assert [entry[0] for entry in state.reads.values()] == [11, 12]
    assert _live_index(state.reads, state.read_rows) == {(0, 5): [2], (1, 5): [1]}
    # ... so its row hit overtakes the older miss on bank 1.
    controller.service()
    assert [entry[0] for entry in state.reads.values()] == [11]
    assert controller.stats.read_row_hits == 1
    controller.service()
    assert controller.pending == 0
    assert _live_index(state.reads, state.read_rows) == {}


def test_out_of_order_arrival_rejected():
    _, controller = _controller()
    controller.enqueue(_burst(100))
    with pytest.raises(ValueError):
        controller.enqueue(_burst(99))
    # equal arrivals are fine (many bursts of one request share a timestamp)
    controller.enqueue(_burst(100))
    # reads and writes are ordered per queue
    controller.enqueue(_burst(50, op=Operation.WRITE))


def test_index_matches_brute_force_under_random_workload():
    for page_policy in ("open", "open_adaptive"):
        _check_random_workload(page_policy)


def _check_random_workload(page_policy):
    rng = random.Random(7)
    config, controller = _controller(page_policy=page_policy)
    state = controller.engine.channels[0]
    arrival = 0
    for _ in range(3000):
        if controller.pending and rng.random() < 0.45:
            queue, expected = _reference_pick(state, config)
            before = dict(queue)
            controller.service()
            issued = [seq for seq in before if seq not in queue]
            assert issued == [expected]
        else:
            arrival += rng.randrange(3)
            op = Operation.WRITE if rng.random() < 0.4 else Operation.READ
            if controller.queue_full(op is Operation.READ):
                continue
            controller.enqueue(
                _burst(arrival, bank=rng.randrange(4), row=rng.randrange(6), op=op)
            )
        for entries, byrow in (
            (state.reads, state.read_rows),
            (state.writes, state.write_rows),
        ):
            assert _live_index(entries, byrow) == _reference_index(entries)


def _random_requests(seed, total=400):
    rng = random.Random(seed)
    timestamp = 0
    requests = []
    for _ in range(total):
        timestamp += rng.randrange(0, 200)
        requests.append(
            MemoryRequest(
                timestamp=timestamp,
                address=rng.randrange(0, 1 << 24) & ~0x3F,
                operation=Operation.READ if rng.random() < 0.7 else Operation.WRITE,
                size=64 * rng.randrange(1, 4),
            )
        )
    return requests


def test_controller_services_every_burst_consistently():
    """End to end on a random stream: every burst is serviced, and the
    per-bank/row-hit counters stay internally consistent with the burst
    totals derived from the address map."""
    requests = _random_requests(21)
    memory = MemorySystem(MemoryConfig())
    for request in requests:
        memory.submit(request)
    memory.drain()

    expected = {"read": 0, "write": 0}
    for index, request in enumerate(requests):
        for burst in memory.address_map.split_request(request, index):
            expected["read" if burst.is_read else "write"] += 1

    totals_read = sum(c.stats.read_bursts for c in memory.controllers)
    totals_write = sum(c.stats.write_bursts for c in memory.controllers)
    assert totals_read == expected["read"]
    assert totals_write == expected["write"]
    for controller in memory.controllers:
        assert controller.pending == 0
        cstats = controller.stats
        assert cstats.read_row_hits <= cstats.read_bursts
        assert cstats.write_row_hits <= cstats.write_bursts
        assert sum(cstats.per_bank_reads.values()) == cstats.read_bursts
        assert sum(cstats.per_bank_writes.values()) == cstats.write_bursts


def test_controller_stats_deterministic_across_runs():
    """Same stream twice -> bit-identical stats (the index must not
    introduce any ordering nondeterminism)."""
    snapshots = []
    for _ in range(2):
        memory = MemorySystem(MemoryConfig())
        for request in _random_requests(5, total=250):
            memory.submit(request)
        memory.drain()
        snapshots.append(
            [
                (
                    c.stats.read_bursts,
                    c.stats.write_bursts,
                    c.stats.read_row_hits,
                    c.stats.write_row_hits,
                    dict(c.stats.per_bank_reads),
                    dict(c.stats.per_bank_writes),
                    dict(c.stats.read_queue_len_seen),
                    dict(c.stats.write_queue_len_seen),
                )
                for c in memory.controllers
            ]
        )
    assert snapshots[0] == snapshots[1]
