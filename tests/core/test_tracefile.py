"""The trace-file codec (repro.core.tracefile): bytes, round trips, errors.

The digests were taken from the files that ``Trace.save_csv`` and
``Trace.save_binary`` wrote before this codec replaced them. The codec
must write the same bytes for the same trace, on either storage engine,
whether it is handed a ``Trace`` or a ``ColumnarTrace``.
"""

import gzip
import hashlib

import pytest

from repro.core.columnar import ColumnarTrace, numpy_or_none
from repro.core.errors import CorruptArtifactError
from repro.core.tracefile import load_trace, save_trace

from ..conftest import synthetic_trace

HAVE_NUMPY = numpy_or_none() is not None

SUFFIXES = (".csv", ".csv.gz", ".mtr", ".mtr.gz")

#: sha256 of each file, for ``synthetic_trace(1200, seed=7)`` and for
#: the empty trace.
DIGESTS = {
    ("trace", ".csv"): "3907c2602dff47160c67ebd6dc5aa1312a0b42d253f839ec7464f07cd2ff2c2a",
    ("trace", ".csv.gz"): "a486b144e3579e10b61d5234d5905dfae203894d9318f6fd139ac400d825f79b",
    ("trace", ".mtr"): "b3825ba0e4f62da60ec0e6cb46e974873fe37c399abc6e9edd5de281449ed2c6",
    ("trace", ".mtr.gz"): "84779d3953da2713ecfa7918d75aaad5bd95d2cfb40e50f6f3a9e758b5e57803",
    ("empty", ".csv"): "8c442b0081935d4c6ea01f2e34e63e46a8b550b814595f7a8681366dee2e4aec",
    ("empty", ".csv.gz"): "c3f86de9ffa9e630d04286c95b749260ed301e62e1758e8536e45d663bbdaea2",
    ("empty", ".mtr"): "3fd00caf0823e6fd08d1b65a1abf1ca925f2dec3ea29bd512e2eb9ae754e8237",
    ("empty", ".mtr.gz"): "16ad35c8e8ba3dc23aa388a4d91ae5d2b70093880b5a5209b7cedb1c940c55ba",
}


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


@pytest.fixture(scope="module")
def sample():
    return synthetic_trace(1200, seed=7)


@pytest.mark.parametrize("suffix", SUFFIXES)
@pytest.mark.parametrize("label", ["trace", "empty"])
def test_bytes_are_pinned_and_round_trip(engine, label, suffix, sample, tmp_path):
    trace = sample if label == "trace" else sample[:0]
    path = tmp_path / f"t{suffix}"
    size = save_trace(trace, path)
    data = path.read_bytes()
    assert size == len(data)
    assert hashlib.sha256(data).hexdigest() == DIGESTS[label, suffix]

    loaded = load_trace(path)
    assert loaded == ColumnarTrace.from_trace(trace)
    again = tmp_path / f"again{suffix}"
    save_trace(loaded, again)
    assert again.read_bytes() == data


@pytest.mark.parametrize("suffix", [".csv", ".mtr"])
def test_gzip_sniffed_whatever_the_suffix(engine, suffix, sample, tmp_path):
    plain = tmp_path / f"plain{suffix}"
    save_trace(sample, plain)
    sneaky = tmp_path / f"sneaky{suffix}"
    sneaky.write_bytes(gzip.compress(plain.read_bytes(), mtime=0))
    assert load_trace(sneaky) == load_trace(plain)


def test_bad_magic_rejected(engine, tmp_path):
    path = tmp_path / "t.mtr"
    path.write_bytes(b"NOPE" + b"\x00" * 8)
    with pytest.raises(CorruptArtifactError, match="not a Mocktails binary trace"):
        load_trace(path)


def test_truncated_header_names_offset(engine, tmp_path):
    path = tmp_path / "t.mtr"
    path.write_bytes(b"MTR1\x00\x00")
    with pytest.raises(CorruptArtifactError, match="header: ends at byte offset 6"):
        load_trace(path)


def test_truncated_records_name_offset(engine, sample, tmp_path):
    path = tmp_path / "t.mtr"
    save_trace(sample, path)
    whole = path.read_bytes()
    path.write_bytes(whole[:-5])
    with pytest.raises(
        CorruptArtifactError,
        match=f"1200 records end at byte offset {len(whole)}, "
        f"the data at byte offset {len(whole) - 5}",
    ):
        load_trace(path)


def test_truncated_gzip_stream_names_offset(sample, tmp_path):
    path = tmp_path / "t.mtr.gz"
    save_trace(sample, path)
    whole = path.read_bytes()
    path.write_bytes(whole[: len(whole) // 2])
    with pytest.raises(CorruptArtifactError, match="gzip stream.*byte offset"):
        load_trace(path)


def test_invalid_operation_rejected(engine, sample, tmp_path):
    path = tmp_path / "t.mtr"
    save_trace(sample, path)
    data = bytearray(path.read_bytes())
    data[12 + 16] = 7  # the first record's operation byte
    path.write_bytes(bytes(data))
    with pytest.raises(CorruptArtifactError, match="malformed binary trace"):
        load_trace(path)


def test_csv_missing_header(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("1,0x40,R,64\n")
    with pytest.raises(CorruptArtifactError, match="missing CSV header"):
        load_trace(path)


def test_csv_malformed_record_names_line(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(
        "timestamp,address,operation,size\n"
        "1,0x40,R,64\n"
        "\n"
        "2,0x80,R,not-a-size\n"
    )
    with pytest.raises(CorruptArtifactError, match="malformed CSV record at line 4"):
        load_trace(path)
