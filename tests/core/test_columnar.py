"""Unit tests for the columnar trace backend (repro.core.columnar).

Every structural test runs twice: once on the numpy engine (skipped when
numpy is absent) and once on the stdlib-``array`` fallback, forced via
``MOCKTAILS_NO_NUMPY`` so it is exercised even on hosts that do have
numpy. The CI ``no-numpy`` leg additionally runs the whole suite with
numpy genuinely uninstalled.
"""

import pytest

from repro.core.columnar import (
    ColumnarTrace,
    as_columnar,
    as_scalar,
    numpy_or_none,
    resolve_backend,
)
from repro.core.request import MemoryRequest, Operation
from repro.core.trace import Trace

from ..conftest import req

HAVE_NUMPY = numpy_or_none() is not None


@pytest.fixture(params=["numpy", "array"])
def engine(request, monkeypatch):
    """Run the test under each storage engine."""
    if request.param == "numpy":
        if not HAVE_NUMPY:
            pytest.skip("numpy not installed")
        monkeypatch.delenv("MOCKTAILS_NO_NUMPY", raising=False)
    else:
        monkeypatch.setenv("MOCKTAILS_NO_NUMPY", "1")
    return request.param


def sample_trace() -> Trace:
    return Trace(
        [
            req(0, 0x1000, "R", 64),
            req(3, 0x1040, "W", 32),
            req(3, 0x2000, "R", 16),  # equal timestamps are legal
            req(9, 0xFFFF_FFFF_0040, "W", 128),  # > 2**32 address
        ]
    )


class TestRoundTrip:
    def test_empty_trace(self, engine):
        cols = ColumnarTrace.from_trace(Trace())
        assert len(cols) == 0
        assert list(cols) == []
        assert cols.to_trace() == Trace()
        assert cols == ColumnarTrace.empty()

    def test_single_request(self, engine):
        trace = Trace([req(7, 0x40, "W", 32)])
        cols = ColumnarTrace.from_trace(trace)
        assert len(cols) == 1
        back = cols.to_trace()
        assert back == trace
        assert back[0] == MemoryRequest(7, 0x40, Operation.WRITE, 32)

    def test_order_preserved_exactly(self, engine):
        trace = sample_trace()
        back = ColumnarTrace.from_trace(trace).to_trace()
        assert list(back) == list(trace)

    def test_addresses_above_2_32(self, engine):
        trace = Trace([req(0, 2**32 + 64), req(1, 2**63 + 4096), req(2, 2**64 - 64)])
        cols = ColumnarTrace.from_trace(trace)
        assert [r.address for r in cols.to_trace()] == [
            2**32 + 64,
            2**63 + 4096,
            2**64 - 64,
        ]

    def test_indexing_and_slicing(self, engine):
        trace = sample_trace()
        cols = ColumnarTrace.from_trace(trace)
        assert cols[1] == trace[1]
        assert cols[1:3].to_trace() == Trace(list(trace)[1:3])
        assert cols.head(2).to_trace() == trace.head(2)

    def test_derived_stats_match_trace(self, engine):
        trace = sample_trace()
        cols = ColumnarTrace.from_trace(trace)
        assert cols.start_time == trace.start_time
        assert cols.end_time == trace.end_time
        assert cols.read_count() == sum(
            1 for r in trace if r.operation is Operation.READ
        )
        assert cols.write_count() == sum(
            1 for r in trace if r.operation is Operation.WRITE
        )
        assert cols.total_bytes() == sum(r.size for r in trace)

    def test_counts_do_not_wrap_at_the_column_width(self, engine):
        # Regression: summing uint8 ops / uint32 sizes element by element
        # stayed in the column dtype under numpy and wrapped silently.
        cols = ColumnarTrace([1] * 300, [64] * 300, [2**31] * 300, [1] * 300)
        assert cols.write_count() == 300
        assert cols.read_count() == 0
        assert cols.total_bytes() == 300 * 2**31

    def test_empty_trace_has_no_times(self, engine):
        cols = ColumnarTrace.empty()
        with pytest.raises(ValueError):
            cols.start_time
        with pytest.raises(ValueError):
            cols.end_time


class TestValidation:
    def test_non_monotonic_timestamps_rejected(self, engine):
        with pytest.raises(ValueError, match="sorted by timestamp"):
            ColumnarTrace.from_columns([5, 3], [0, 64], [64, 64], [0, 0])

    def test_non_monotonic_allowed_when_opted_out(self, engine):
        cols = ColumnarTrace.from_columns(
            [5, 3], [0, 64], [64, 64], [0, 0], require_sorted=False
        )
        assert not cols.is_sorted()

    def test_unequal_column_lengths_rejected(self, engine):
        with pytest.raises(ValueError, match="equal lengths"):
            ColumnarTrace([0, 1], [0], [64], [0])

    def test_negative_address_rejected(self, engine):
        with pytest.raises(ValueError, match="address"):
            ColumnarTrace([0], [-1], [64], [0])

    def test_zero_size_rejected(self, engine):
        with pytest.raises(ValueError, match="size must be positive"):
            ColumnarTrace([0], [0], [0], [0])

    def test_oversize_rejected(self, engine):
        with pytest.raises(ValueError, match="outside the columnar range"):
            ColumnarTrace([0], [0], [2**32], [0])

    def test_bad_operation_rejected(self, engine):
        with pytest.raises(ValueError, match="operation column"):
            ColumnarTrace([0], [0], [64], [2])

    def test_address_beyond_64_bits_rejected(self, engine):
        with pytest.raises(ValueError, match="outside the columnar range"):
            ColumnarTrace([0], [2**64], [64], [0])


class TestChunking:
    def test_iter_blocks_concat_identity(self, engine):
        trace = Trace([req(t, t * 64) for t in range(100)])
        cols = ColumnarTrace.from_trace(trace)
        blocks = list(cols.iter_blocks(block_requests=7))
        assert [len(b) for b in blocks] == [7] * 14 + [2]
        assert ColumnarTrace.concat(blocks) == cols

    def test_concat_empty(self, engine):
        assert len(ColumnarTrace.concat([])) == 0

    def test_bad_block_size(self, engine):
        with pytest.raises(ValueError, match="block_requests"):
            list(ColumnarTrace.empty().iter_blocks(0))


class TestCoercions:
    def test_as_columnar_and_as_scalar(self, engine):
        trace = sample_trace()
        cols = as_columnar(trace)
        assert as_columnar(cols) is cols
        assert as_scalar(cols) == trace
        assert as_scalar(trace) is trace


class TestArrayFallback:
    def test_no_numpy_env_forces_array_engine(self, monkeypatch):
        from array import array

        monkeypatch.setenv("MOCKTAILS_NO_NUMPY", "1")
        assert numpy_or_none() is None
        cols = ColumnarTrace.from_trace(sample_trace())
        assert isinstance(cols.timestamps, array)
        assert cols.timestamps.typecode == "Q"
        assert cols.addresses.typecode == "Q"
        assert cols.sizes.typecode == "I"
        assert cols.ops.typecode == "B"
        assert cols.to_trace() == sample_trace()

    def test_engines_agree_on_lists(self, monkeypatch):
        if not HAVE_NUMPY:
            pytest.skip("needs both engines to compare")
        monkeypatch.delenv("MOCKTAILS_NO_NUMPY", raising=False)
        with_numpy = ColumnarTrace.from_trace(sample_trace()).to_lists()
        monkeypatch.setenv("MOCKTAILS_NO_NUMPY", "1")
        without = ColumnarTrace.from_trace(sample_trace()).to_lists()
        assert with_numpy == without


class TestBackendSelection:
    def test_auto_resolution_follows_numpy(self, monkeypatch):
        monkeypatch.setenv("MOCKTAILS_NO_NUMPY", "1")
        assert resolve_backend() == "scalar"
        if HAVE_NUMPY:
            monkeypatch.delenv("MOCKTAILS_NO_NUMPY")
            assert resolve_backend() == "columnar"

    def test_unknown_backend_rejected(self):
        # The data path follows numpy availability; no name selects it.
        for name in ("scalar", "columnar", "auto", "vectorized"):
            with pytest.raises(ValueError, match="unknown backend"):
                resolve_backend(name)
