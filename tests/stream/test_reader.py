"""Chunked reader: block concatenation == whole-file loads, loud errors.

``iter_blocks`` must reproduce the whole-file loaders request for
request in every on-disk format, and must name the byte offset of the
first missing or corrupt byte — the guarantee the incremental gzip
satellite exists to provide.
"""

from __future__ import annotations

import gzip

import pytest

from repro.core.columnar import ColumnarTrace
from repro.core.errors import CorruptArtifactError
from repro.stream import iter_blocks

SUFFIXES = (".mtr", ".mtr.gz", ".csv", ".csv.gz")


def _save(trace, path):
    if ".mtr" in path.name:
        return trace.save_binary(path)
    return trace.save_csv(path)


def _drain(path, block_requests):
    blocks = list(iter_blocks(path, block_requests))
    assert all(len(block) <= block_requests for block in blocks)
    return blocks


@pytest.mark.parametrize("suffix", SUFFIXES)
@pytest.mark.parametrize("block_requests", [1, 7, 256, 10_000])
def test_blocks_concat_to_whole_trace(suffix, block_requests, stream_trace, tmp_path):
    path = tmp_path / f"t{suffix}"
    _save(stream_trace, path)
    blocks = _drain(path, block_requests)
    assert ColumnarTrace.concat(blocks) == ColumnarTrace.from_trace(stream_trace)


@pytest.mark.parametrize("suffix", SUFFIXES)
def test_empty_trace_yields_no_blocks(suffix, stream_trace, tmp_path):
    path = tmp_path / f"empty{suffix}"
    _save(stream_trace[:0], path)
    assert _drain(path, 64) == []


def test_block_requests_must_be_positive(tmp_path):
    for bad in (0, -1):
        with pytest.raises(ValueError, match="block_requests"):
            iter_blocks(tmp_path / "t.mtr", bad)


def test_unknown_suffix_rejected(tmp_path):
    with pytest.raises(ValueError, match="unknown trace suffix"):
        iter_blocks(tmp_path / "t.parquet")


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "t.mtr"
    path.write_bytes(b"NOPE" + b"\x00" * 8)
    with pytest.raises(ValueError, match="not a Mocktails binary trace") as raised:
        list(iter_blocks(path))
    assert isinstance(raised.value, CorruptArtifactError)


def test_truncated_header_names_offset(tmp_path):
    path = tmp_path / "t.mtr"
    path.write_bytes(b"MTRC\x00\x00")
    with pytest.raises(CorruptArtifactError, match="byte offset 0"):
        list(iter_blocks(path))


def test_truncated_payload_names_offset(stream_trace, tmp_path):
    path = tmp_path / "t.mtr"
    stream_trace.save_binary(path)
    whole = path.read_bytes()
    path.write_bytes(whole[:-5])
    with pytest.raises(CorruptArtifactError, match="byte offset"):
        list(iter_blocks(path, 64))


def test_truncated_gzip_stream_names_compressed_offset(stream_trace, tmp_path):
    path = tmp_path / "t.mtr.gz"
    stream_trace.save_binary(path)
    whole = path.read_bytes()
    path.write_bytes(whole[: len(whole) // 2])
    with pytest.raises(CorruptArtifactError, match="gzip|truncated"):
        list(iter_blocks(path, 64))


def test_gzip_sniffed_regardless_of_suffix(stream_trace, tmp_path):
    """A gzipped payload under a plain suffix still reads (like load_*)."""
    plain = tmp_path / "p.mtr"
    stream_trace.save_binary(plain)
    sneaky = tmp_path / "s.mtr"
    sneaky.write_bytes(gzip.compress(plain.read_bytes(), mtime=0))
    assert ColumnarTrace.concat(_drain(sneaky, 100)) == ColumnarTrace.from_trace(
        stream_trace
    )


def test_csv_missing_header(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("1,0x40,R,64\n")
    with pytest.raises(CorruptArtifactError, match="missing CSV header"):
        list(iter_blocks(path))


def test_csv_malformed_record_names_line(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(
        "timestamp,address,operation,size\n"
        "1,0x40,R,64\n"
        "2,0x80,R,not-a-size\n"
    )
    with pytest.raises(CorruptArtifactError, match="line 3"):
        list(iter_blocks(path))
