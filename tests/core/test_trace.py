"""Unit tests for the Trace container and its round trip through trace files."""

import pytest

from repro.core.request import AddressRange, Operation
from repro.core.trace import Trace
from repro.core.tracefile import load_trace, save_trace

from ..conftest import req


class TestTraceContainer:
    def test_empty(self):
        trace = Trace()
        assert len(trace) == 0
        assert list(trace) == []

    def test_append_and_len(self):
        trace = Trace()
        trace.append(req(0, 0x100))
        trace.append(req(5, 0x140))
        assert len(trace) == 2

    def test_extend(self):
        trace = Trace()
        trace.extend([req(0, 0), req(1, 64)])
        assert len(trace) == 2

    def test_indexing(self):
        trace = Trace([req(0, 0), req(1, 64)])
        assert trace[0].address == 0
        assert trace[-1].address == 64

    def test_slicing_returns_trace(self):
        trace = Trace([req(i, i * 64) for i in range(10)])
        sliced = trace[2:5]
        assert isinstance(sliced, Trace)
        assert len(sliced) == 3
        assert sliced[0].timestamp == 2

    def test_head(self):
        trace = Trace([req(i, i * 64) for i in range(10)])
        assert len(trace.head(4)) == 4
        assert len(trace.head(100)) == 10

    def test_equality(self):
        a = Trace([req(0, 0)])
        b = Trace([req(0, 0)])
        assert a == b
        assert a != Trace([req(1, 0)])


class TestTraceProperties:
    def test_is_sorted(self):
        assert Trace([req(0, 0), req(1, 0)]).is_sorted()
        assert not Trace([req(1, 0), req(0, 0)]).is_sorted()
        assert Trace().is_sorted()

    def test_sorted_by_time_is_stable(self):
        trace = Trace([req(5, 1), req(5, 2), req(0, 3)])
        ordered = trace.sorted_by_time()
        assert [r.address for r in ordered] == [3, 1, 2]

    def test_start_end_duration(self):
        trace = Trace([req(10, 0), req(50, 0)])
        assert trace.start_time == 10
        assert trace.end_time == 50
        assert trace.duration == 40

    def test_empty_trace_time_raises(self):
        with pytest.raises(ValueError):
            Trace().start_time
        with pytest.raises(ValueError):
            Trace().end_time

    def test_empty_duration_is_zero(self):
        assert Trace().duration == 0

    def test_address_range_covers_sizes(self):
        trace = Trace([req(0, 0x100, "R", 64), req(1, 0x300, "R", 128)])
        assert trace.address_range() == AddressRange(0x100, 0x380)

    def test_read_write_counts(self):
        trace = Trace([req(0, 0, "R"), req(1, 0, "W"), req(2, 0, "R")])
        assert trace.read_count() == 2
        assert trace.write_count() == 1

    def test_total_bytes(self):
        trace = Trace([req(0, 0, "R", 64), req(1, 0, "W", 32)])
        assert trace.total_bytes() == 96


class TestTraceIO:
    def test_csv_roundtrip(self, tmp_path, mixed_trace):
        path = tmp_path / "t.csv.gz"
        save_trace(mixed_trace, path)
        assert load_trace(path).to_trace() == mixed_trace

    def test_binary_roundtrip(self, tmp_path, mixed_trace):
        path = tmp_path / "t.mtr.gz"
        size = save_trace(mixed_trace, path)
        assert size > 0
        assert load_trace(path).to_trace() == mixed_trace

    def test_binary_roundtrip_empty(self, tmp_path):
        path = tmp_path / "empty.mtr.gz"
        save_trace(Trace(), path)
        assert len(load_trace(path)) == 0

    def test_binary_rejects_bad_magic(self, tmp_path):
        import gzip

        path = tmp_path / "bad.mtr.gz"
        path.write_bytes(gzip.compress(b"NOPE" + b"\x00" * 16))
        with pytest.raises(ValueError):
            load_trace(path)

    def test_csv_rejects_missing_header(self, tmp_path):
        import gzip

        path = tmp_path / "bad.csv.gz"
        with gzip.open(path, "wt") as handle:
            handle.write("1,0x100,R,64\n")
        with pytest.raises(ValueError):
            load_trace(path)

    def test_csv_preserves_operations(self, tmp_path):
        trace = Trace([req(0, 0x10, "W", 8)])
        path = tmp_path / "w.csv.gz"
        save_trace(trace, path)
        assert load_trace(path)[0].operation is Operation.WRITE

    def test_plain_csv_roundtrip(self, tmp_path, mixed_trace):
        path = tmp_path / "t.csv"
        size = save_trace(mixed_trace, path)
        assert size == path.stat().st_size
        assert path.read_bytes().startswith(b"timestamp,")  # uncompressed
        assert load_trace(path).to_trace() == mixed_trace

    def test_plain_binary_roundtrip(self, tmp_path, mixed_trace):
        path = tmp_path / "t.mtr"
        size = save_trace(mixed_trace, path)
        assert size == path.stat().st_size
        assert path.read_bytes().startswith(b"MTR1")  # uncompressed
        assert load_trace(path).to_trace() == mixed_trace

    def test_save_returns_bytes_written(self, tmp_path, mixed_trace):
        compressed = save_trace(mixed_trace, tmp_path / "t.csv.gz")
        plain = save_trace(mixed_trace, tmp_path / "t.csv")
        assert compressed == (tmp_path / "t.csv.gz").stat().st_size
        assert compressed < plain

    def test_gzip_output_is_byte_deterministic(self, tmp_path, mixed_trace):
        # Regression: the gzip header used to embed the save-time mtime
        # (and, for CSV, the output filename), so saving the same trace
        # twice produced different bytes. Byte 3 is the FLG field (0 =
        # no FNAME), bytes 4-8 are MTIME (0 = not recorded).
        for suffix in ("csv.gz", "mtr.gz"):
            first, second = tmp_path / f"a.{suffix}", tmp_path / f"b.{suffix}"
            save_trace(mixed_trace, first)
            save_trace(mixed_trace, second)
            data = first.read_bytes()
            assert data[3] == 0
            assert data[4:8] == b"\x00\x00\x00\x00"
            assert data == second.read_bytes()
