"""A reader that closes the pipe early ends a tool quietly, not in a traceback."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.tools import profile as profile_tool
from repro.tools import trace as trace_tool

SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipe")
    trace_path, profile_path = root / "t.mtr.gz", root / "p.json.gz"
    assert trace_tool.main(["generate", "hevc1", str(trace_path), "--requests", "500"]) == 0
    assert profile_tool.main(["create", str(trace_path), str(profile_path)]) == 0
    return {"trace": trace_path, "profile": profile_path}


def _run_into_closed_pipe(module, *args):
    """Run a tool whose stdout reader has gone: the pipe's read end is
    closed before the tool writes, as when ``head`` has already exited."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    try:
        return subprocess.run(
            [sys.executable, "-m", module, *args],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
            timeout=120,
        )
    finally:
        os.close(write_end)


@pytest.mark.parametrize(
    "module,command",
    [
        ("repro.tools.profile", ["info", "profile"]),
        ("repro.tools.trace", ["info", "trace"]),
        ("repro.tools.trace", ["list"]),
        ("repro.tools.soc", ["run", "--device", "cpu=crypto1", "--requests", "300"]),
    ],
)
def test_closed_pipe_exits_quietly(artifacts, module, command):
    args = [str(artifacts.get(word, word)) for word in command]
    result = _run_into_closed_pipe(module, *args)
    assert "Traceback" not in result.stderr
    assert "BrokenPipeError" not in result.stderr
    assert result.returncode == 1

