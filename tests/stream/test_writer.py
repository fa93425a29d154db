"""Writing side of the trace-file codec: suffix dispatch happens first."""

from __future__ import annotations

import pytest

from repro.core.tracefile import UnknownTraceSuffixError, save_trace


def test_unknown_suffix_rejected(tmp_path, mixed_trace):
    path = tmp_path / "t.bin"
    with pytest.raises(UnknownTraceSuffixError, match="unrecognized trace suffix"):
        save_trace(mixed_trace, path)
    assert not path.exists()
