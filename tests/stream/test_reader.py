"""Reading side of the trace-file codec: suffix dispatch happens first."""

from __future__ import annotations

import pytest

from repro.core.tracefile import UnknownTraceSuffixError, load_trace


def test_unknown_suffix_rejected(tmp_path):
    # The suffix is checked before the file is opened, so a missing file
    # with an unknown suffix reports the suffix, not FileNotFoundError.
    path = tmp_path / "t.parquet"
    with pytest.raises(UnknownTraceSuffixError, match="unrecognized trace suffix"):
        load_trace(path)
