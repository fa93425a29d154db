"""Property-based tests for DRAM model invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.request import MemoryRequest, Operation
from repro.dram.chargecache import ChargeCacheConfig
from repro.dram.config import DRAMTiming, MemoryConfig
from repro.dram.memory_system import MemorySystem


@st.composite
def request_batches(draw):
    count = draw(st.integers(1, 60))
    clock = 0
    requests = []
    for _ in range(count):
        clock += draw(st.integers(0, 500))
        requests.append(
            MemoryRequest(
                clock,
                draw(st.integers(0, 1 << 24)),
                draw(st.sampled_from([Operation.READ, Operation.WRITE])),
                draw(st.sampled_from([16, 32, 64, 128, 256])),
            )
        )
    return requests


@st.composite
def memory_configs(draw):
    return MemoryConfig(
        num_channels=draw(st.sampled_from([1, 2, 4])),
        banks_per_rank=draw(st.sampled_from([4, 8])),
        read_queue_size=draw(st.sampled_from([4, 16, 32])),
        write_queue_size=draw(st.sampled_from([8, 32, 64])),
        page_policy=draw(st.sampled_from(["open", "open_adaptive"])),
        timing=draw(st.sampled_from([DRAMTiming(), DRAMTiming(t_refi=2_000, t_rfc=150)])),
        charge_cache=draw(
            st.sampled_from([None, ChargeCacheConfig(capacity=4, expiry_cycles=5_000)])
        ),
    )


def _run(requests, config):
    memory = MemorySystem(config)
    for request in requests:
        memory.submit(request)
    memory.drain()
    return memory


class TestConservation:
    @given(request_batches(), memory_configs())
    @settings(max_examples=40, deadline=None)
    def test_bursts_conserved(self, requests, config):
        memory = _run(requests, config)
        expected = 0
        for request in requests:
            first = request.address // config.burst_size
            last = (request.end_address - 1) // config.burst_size
            expected += last - first + 1
        assert memory.stats.read_bursts + memory.stats.write_bursts == expected

    @given(request_batches(), memory_configs())
    @settings(max_examples=40, deadline=None)
    def test_every_request_completes(self, requests, config):
        memory = _run(requests, config)
        assert memory.stats.latency_count == len(requests)
        assert not memory.engine.outstanding

    @given(request_batches(), memory_configs())
    @settings(max_examples=40, deadline=None)
    def test_row_hits_bounded_by_bursts(self, requests, config):
        memory = _run(requests, config)
        stats = memory.stats
        assert 0 <= stats.read_row_hits <= stats.read_bursts
        assert 0 <= stats.write_row_hits <= stats.write_bursts

    @given(request_batches(), memory_configs())
    @settings(max_examples=40, deadline=None)
    def test_queues_empty_after_drain(self, requests, config):
        memory = _run(requests, config)
        for controller in memory.controllers:
            assert controller.pending == 0

    @given(request_batches(), memory_configs())
    @settings(max_examples=40, deadline=None)
    def test_latency_positive_and_bounded(self, requests, config):
        memory = _run(requests, config)
        # Every access pays at least one burst transfer.
        assert memory.stats.avg_access_latency >= config.timing.t_burst

    @given(request_batches())
    @settings(max_examples=30, deadline=None)
    def test_deterministic(self, requests):
        a = _run(requests, MemoryConfig()).stats.summary()
        b = _run(requests, MemoryConfig()).stats.summary()
        assert a == b


class TestProtocol:
    """Bus-level timing rules, checked on the ``dram.issue`` event stream."""

    @given(request_batches(), memory_configs())
    @settings(max_examples=60, deadline=None)
    def test_issue_stream_respects_bus_timing(self, requests, config):
        sink = obs.MemoryEventSink()
        obs.enable(sink)
        try:
            memory = _run(requests, config)
        finally:
            obs.disable()
        issues = sink.of_type("dram.issue")
        timing = config.timing
        for channel in range(config.num_channels):
            previous = None
            for event in (e for e in issues if e["channel"] == channel):
                if previous is not None:
                    gap = event["finish"] - previous["finish"]
                    # No data-bus overlap between consecutive bursts.
                    assert gap >= timing.t_burst
                    if previous["is_read"] and not event["is_read"]:
                        assert gap >= timing.t_burst + timing.t_rtw
                    elif event["is_read"] and not previous["is_read"]:
                        assert gap >= timing.t_burst + timing.t_wtr
                previous = event
        stats = memory.stats
        assert sum(e["row_hit"] for e in issues) == stats.read_row_hits + stats.write_row_hits
        assert len(issues) == stats.read_bursts + stats.write_bursts


class TestAddressMapProperties:
    @given(st.integers(0, 1 << 40), memory_configs())
    @settings(max_examples=100, deadline=None)
    def test_decode_in_bounds(self, address, config):
        from repro.dram.address_map import AddressMap

        coords = AddressMap(config).decode(address)
        assert 0 <= coords.channel < config.num_channels
        assert 0 <= coords.rank < config.ranks_per_channel
        assert 0 <= coords.bank < config.banks_per_rank
        assert 0 <= coords.column < config.columns_per_row
        assert coords.row >= 0

    @given(st.integers(0, 1 << 32))
    @settings(max_examples=60, deadline=None)
    def test_mappings_bijective_on_bursts(self, burst_index):
        """Distinct bursts decode to distinct coordinates (both mappings)."""
        from repro.dram.address_map import AddressMap

        for mapping in ("ch_lo", "ch_hi"):
            config = MemoryConfig(address_mapping=mapping)
            amap = AddressMap(config)
            a = amap.decode(burst_index * config.burst_size)
            b = amap.decode((burst_index + 1) * config.burst_size)
            assert a != b
