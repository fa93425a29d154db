"""The shared atomic-write helper: interrupted writes never truncate.

Every artifact writer (profiles, traces, manifests, result store entries) goes
through ``repro.core.atomic``. These tests pin the crash-safety
contract: a writer that dies mid-write — including a hard ``SIGKILL`` —
leaves the destination either untouched or fully written, never
truncated.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.serialization import load_profile, save_profile
from repro.core.trace import Trace
from repro.core.tracefile import load_trace, save_trace
from repro.core.atomic import AtomicFileWriter, atomic_write_bytes, atomic_write_text


def test_writes_payload_and_returns_size(tmp_path):
    path = tmp_path / "artifact.bin"
    assert atomic_write_bytes(path, b"hello") == 5
    assert path.read_bytes() == b"hello"


def test_overwrites_existing_file(tmp_path):
    path = tmp_path / "artifact.bin"
    path.write_bytes(b"old contents")
    atomic_write_bytes(path, b"new")
    assert path.read_bytes() == b"new"


def test_text_helper_encodes_utf8(tmp_path):
    path = tmp_path / "artifact.txt"
    size = atomic_write_text(path, "héllo\n")
    assert path.read_text(encoding="utf-8") == "héllo\n"
    assert size == len("héllo\n".encode("utf-8"))


@pytest.mark.parametrize(
    "write", [lambda path: atomic_write_bytes(path, b"x"), AtomicFileWriter]
)
def test_missing_directory_error_names_the_destination(tmp_path, write):
    path = tmp_path / "no-such-dir" / "x.json"
    with pytest.raises(FileNotFoundError) as error:
        write(path)
    assert error.value.filename == str(path)
    assert str(path) in str(error.value)


def test_crash_before_replace_leaves_destination_untouched(tmp_path, monkeypatch):
    path = tmp_path / "artifact.bin"
    path.write_bytes(b"previous good artifact")

    def exploding_replace(src, dst):
        raise KeyboardInterrupt("simulated crash mid-write")

    monkeypatch.setattr(os, "replace", exploding_replace)
    with pytest.raises(KeyboardInterrupt):
        atomic_write_bytes(path, b"half-written garbage")
    monkeypatch.undo()

    assert path.read_bytes() == b"previous good artifact"
    # The aborted temp file was cleaned up, not leaked.
    assert [p.name for p in tmp_path.iterdir()] == ["artifact.bin"]


def test_sigkill_mid_save_never_truncates_profile(tmp_path):
    """Regression: a ``kill -9`` during ``save_profile`` used to be able
    to leave a truncated .mprof.gz; now the old file survives intact."""
    from repro.core.hierarchy import two_level_ts
    from repro.core.profiler import build_profile
    from repro.workloads.registry import workload_trace

    path = tmp_path / "workload.mprof.gz"
    profile = build_profile(workload_trace("hevc1", 500), two_level_ts(), name="hevc1")
    save_profile(profile, path)
    good_bytes = path.read_bytes()

    # A child process that SIGKILLs itself at the instant the payload
    # would be renamed into place — the worst possible moment.
    script = f"""
import os, signal, sys
sys.path.insert(0, {repr(str(Path(__file__).resolve().parents[2] / 'src'))})
from repro.core.hierarchy import two_level_ts
from repro.core.profiler import build_profile
from repro.core.serialization import save_profile
from repro.workloads.registry import workload_trace

def kill_self(src, dst):
    os.kill(os.getpid(), signal.SIGKILL)

os.replace = kill_self
profile = build_profile(workload_trace('trex1', 500), two_level_ts(), name='trex1')
save_profile(profile, {repr(str(path))})
"""
    result = subprocess.run([sys.executable, "-c", script], capture_output=True)
    assert result.returncode == -9  # died by SIGKILL, mid-"write"

    assert path.read_bytes() == good_bytes
    assert load_profile(path) == profile


def test_interrupted_trace_save_keeps_previous_trace(tmp_path, monkeypatch, mixed_trace):
    path = tmp_path / "trace.mtr.gz"
    save_trace(mixed_trace, path)
    before = path.read_bytes()

    calls = {"n": 0}
    real_replace = os.replace

    def failing_replace(src, dst):
        calls["n"] += 1
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError):
        save_trace(Trace(list(mixed_trace) * 4), path)
    monkeypatch.setattr(os, "replace", real_replace)

    assert calls["n"] == 1
    assert path.read_bytes() == before
    assert load_trace(path).to_trace() == mixed_trace
