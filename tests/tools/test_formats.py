"""Suffix dispatch in the trace-file codec (``load_trace``/``save_trace``)."""

from pathlib import Path

import pytest

from repro.core.tracefile import UnknownTraceSuffixError, load_trace, save_trace


@pytest.mark.parametrize("suffix", ["csv", "csv.gz", "mtr", "mtr.gz"])
def test_roundtrip_every_suffix(tmp_path, mixed_trace, suffix):
    path = tmp_path / f"trace.{suffix}"
    size = save_trace(mixed_trace, path)
    assert size == path.stat().st_size
    assert load_trace(path).to_trace() == mixed_trace


def test_plain_csv_is_human_readable(tmp_path, mixed_trace):
    # Regression: everything without a .csv.gz suffix used to be
    # treated as the binary format, so "trace.csv" silently came out
    # as struct-packed bytes.
    path = tmp_path / "trace.csv"
    save_trace(mixed_trace, path)
    assert path.read_text().startswith("timestamp,address,operation,size")


def test_unknown_suffix_rejected_on_save(tmp_path, mixed_trace):
    path = tmp_path / "trace.json"
    with pytest.raises(UnknownTraceSuffixError, match="unrecognized trace suffix") as raised:
        save_trace(mixed_trace, path)
    assert isinstance(raised.value, ValueError)
    assert raised.value.path == str(path)
    assert not path.exists()


def test_unknown_suffix_rejected_on_load(tmp_path):
    # Regression: an unknown suffix used to fall through to the binary
    # loader and fail with a confusing "not a Mocktails binary trace".
    path = tmp_path / "trace.txt"
    path.write_text("whatever")
    with pytest.raises(UnknownTraceSuffixError, match="unrecognized trace suffix"):
        load_trace(path)


def test_error_names_the_known_suffixes(tmp_path):
    with pytest.raises(ValueError) as excinfo:
        load_trace(Path(tmp_path / "trace.dat"))
    message = str(excinfo.value)
    for suffix in (".csv", ".csv.gz", ".mtr", ".mtr.gz"):
        assert suffix in message
