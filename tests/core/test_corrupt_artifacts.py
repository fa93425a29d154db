"""Loaders fail loudly and clearly on truncated/corrupt artifacts.

Regression suite for the ``CorruptArtifactError`` contract: a truncated
gzip stream or malformed payload names the offending file instead of
surfacing a raw ``zlib.error`` / ``struct.error`` / ``UnicodeDecodeError``
from deep inside the codec.
"""

import gzip

import pytest

from repro import CorruptArtifactError
from repro.core.hierarchy import two_level_ts
from repro.core.profiler import build_profile
from repro.core.serialization import load_profile, save_profile
from repro.core.tracefile import load_trace, save_trace
from repro.workloads.registry import workload_trace


@pytest.fixture(scope="module")
def profile_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("profiles") / "hevc1.mprof.gz"
    profile = build_profile(workload_trace("hevc1", 400), two_level_ts(), name="hevc1")
    save_profile(profile, path)
    return path


# ---------------------------------------------------------------------------
# Profiles
# ---------------------------------------------------------------------------


def test_truncated_gzip_profile(profile_file, tmp_path):
    truncated = tmp_path / "truncated.mprof.gz"
    truncated.write_bytes(profile_file.read_bytes()[:40])
    with pytest.raises(CorruptArtifactError) as excinfo:
        load_profile(truncated)
    assert str(truncated) in str(excinfo.value)
    assert excinfo.value.path == str(truncated)


def test_profile_with_garbage_payload(tmp_path):
    path = tmp_path / "garbage.mprof.gz"
    path.write_bytes(gzip.compress(b"\xff\xfe not json", mtime=0))
    with pytest.raises(CorruptArtifactError, match="corrupt profile payload"):
        load_profile(path)


def test_profile_with_malformed_structure(tmp_path):
    path = tmp_path / "malformed.mprof.gz"
    payload = b'{"format_version":1,"leaves":[{"not":"a leaf"}]}'
    path.write_bytes(gzip.compress(payload, mtime=0))
    with pytest.raises(CorruptArtifactError, match="malformed profile structure"):
        load_profile(path)


def test_corrupt_error_is_still_a_valueerror(tmp_path):
    # Callers written against the old contract keep working.
    path = tmp_path / "bad.mprof.gz"
    path.write_bytes(b"not gzip at all")
    with pytest.raises(ValueError):
        load_profile(path)


# ---------------------------------------------------------------------------
# Traces: binary format
# ---------------------------------------------------------------------------


def test_truncated_binary_trace(tmp_path, mixed_trace):
    path = tmp_path / "trace.mtr"
    save_trace(mixed_trace, path)
    path.write_bytes(path.read_bytes()[:20])  # cuts a record in half
    with pytest.raises(CorruptArtifactError) as excinfo:
        load_trace(path)
    assert str(path) in str(excinfo.value)


def test_truncated_gzipped_binary_trace(tmp_path, mixed_trace):
    path = tmp_path / "trace.mtr.gz"
    save_trace(mixed_trace, path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(CorruptArtifactError, match="gzip"):
        load_trace(path)


def test_binary_trace_with_invalid_operation(tmp_path, mixed_trace):
    path = tmp_path / "trace.mtr"
    save_trace(mixed_trace, path)
    data = bytearray(path.read_bytes())
    data[12 + 16] = 7  # first record's operation byte: not READ/WRITE
    path.write_bytes(bytes(data))
    with pytest.raises(CorruptArtifactError, match="malformed binary trace"):
        load_trace(path)


def test_wrong_magic_raises_corrupt_artifact_error(tmp_path):
    # Like every other loader error; still a ValueError for old callers.
    path = tmp_path / "trace.mtr"
    path.write_bytes(b"PNG\x00 definitely not a trace")
    with pytest.raises(ValueError, match="not a Mocktails binary trace") as raised:
        load_trace(path)
    assert isinstance(raised.value, CorruptArtifactError)
    assert raised.value.path == str(path)


# ---------------------------------------------------------------------------
# Traces: CSV format
# ---------------------------------------------------------------------------


def test_truncated_gzipped_csv_trace(tmp_path, mixed_trace):
    path = tmp_path / "trace.csv.gz"
    save_trace(mixed_trace, path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(CorruptArtifactError, match="gzip"):
        load_trace(path)


def test_csv_with_missing_header(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("1,0x1000,R,64\n")
    with pytest.raises(CorruptArtifactError, match="missing CSV header"):
        load_trace(path)


def test_csv_with_malformed_record(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("timestamp,address,operation,size\n1,0x1000,R\n")
    with pytest.raises(CorruptArtifactError, match="malformed CSV record"):
        load_trace(path)


def test_csv_with_non_numeric_fields(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("timestamp,address,operation,size\nabc,0x1000,R,64\n")
    with pytest.raises(CorruptArtifactError, match="malformed CSV record"):
        load_trace(path)


def test_csv_with_binary_garbage(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_bytes(b"\x93\xffbinary junk\x00")
    with pytest.raises(CorruptArtifactError, match="not an ASCII CSV trace"):
        load_trace(path)
