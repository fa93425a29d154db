"""Out-of-core synthesis and replay: identical results, crash-safe files.

``synthesize_to_file`` must write the same bytes ``synthesize`` +
``save_*`` would; the block replay twins must return the same
statistics as their in-memory counterparts; and a process killed
mid-write must never leave a partial trace at the destination.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.profiler import build_profile
from repro.core.synthesis import synthesize, synthesize_to_file
from repro.sim.cache_driver import run_cache_blocks, run_cache_trace
from repro.sim.driver import simulate_blocks, simulate_trace


@pytest.fixture
def profile(stream_trace):
    return build_profile(stream_trace, name="t")


@pytest.mark.parametrize("suffix", [".mtr", ".mtr.gz", ".csv", ".csv.gz"])
def test_synthesize_to_file_byte_identical(suffix, profile, tmp_path):
    trace = synthesize(profile, seed=3)
    ref = tmp_path / f"ref{suffix}"
    if ".mtr" in suffix:
        trace.save_binary(ref)
    else:
        trace.save_csv(ref)
    out = tmp_path / f"out{suffix}"
    written = synthesize_to_file(profile, out, seed=3, block_requests=57)
    assert written == len(trace)
    assert out.read_bytes() == ref.read_bytes()


def test_synthesize_to_file_block_requests_validated(profile, tmp_path):
    with pytest.raises(ValueError, match="block_requests"):
        synthesize_to_file(profile, tmp_path / "t.mtr", block_requests=0)


def test_cache_blocks_match_trace_replay(stream_columns):
    expected = run_cache_trace(stream_columns)
    got = run_cache_blocks(stream_columns.iter_blocks(128))
    assert got.l1 == expected.l1
    assert got.l2 == expected.l2


def test_simulate_blocks_match_trace_replay(stream_trace, stream_columns):
    expected = simulate_trace(stream_trace)
    got = simulate_blocks(stream_columns.iter_blocks(97))
    assert got == expected
    assert got.latency_count == expected.latency_count


_KILL_SCRIPT = """
import sys, time
from repro.core.columnar import ColumnarTrace
from repro.stream.writer import TraceBlockWriter

writer = TraceBlockWriter(sys.argv[1])
block = ColumnarTrace([1] * 512, [64] * 512, [64] * 512, [0] * 512)
writer.write_block(block)
print("READY", flush=True)
while True:
    writer.write_block(block)
    time.sleep(0.01)
"""


def test_sigkill_mid_write_leaves_no_destination(tmp_path):
    """A hard kill mid-stream must not publish a partial trace file."""
    dest = tmp_path / "victim.mtr"
    src_dir = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src_dir) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-c", _KILL_SCRIPT, str(dest)],
        stdout=subprocess.PIPE,
        env=env,
    )
    try:
        line = proc.stdout.readline()
        assert line.strip() == b"READY", line
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)
    finally:
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert not dest.exists()
