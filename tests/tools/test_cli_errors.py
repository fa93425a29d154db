"""A missing, unwritable or corrupt file, or a trace path with an unknown
suffix, ends a CLI with one error line."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

UNKNOWN_SUFFIX = "unrecognized trace suffix; expected one of: .csv, .csv.gz, .mtr, .mtr.gz"


@pytest.mark.parametrize(
    "module,args,message",
    [
        (
            "repro.tools.trace",
            ["info", "missing.mtr"],
            "missing.mtr: No such file or directory",
        ),
        (
            "repro.tools.trace",
            ["info", "bad.csv"],
            "bad.csv: missing CSV header",
        ),
        (
            "repro.tools.profile",
            ["info", "missing.json.gz"],
            "missing.json.gz: No such file or directory",
        ),
        (
            "repro.eval",
            ["quick", "fig2", "--no-cache", "--json-out", "no-such-dir/x.json"],
            "no-such-dir/x.json: No such file or directory",
        ),
        (
            "repro.tools.trace",
            ["info", "x.foo"],
            f"x.foo: {UNKNOWN_SUFFIX}",
        ),
        (
            "repro.tools.trace",
            ["convert", "in.csv", "out.foo"],
            f"out.foo: {UNKNOWN_SUFFIX}",
        ),
        (
            "repro.tools.profile",
            ["create", "x.foo", "out.mprof.gz"],
            f"x.foo: {UNKNOWN_SUFFIX}",
        ),
    ],
)
def test_file_errors_print_one_line_and_exit_1(tmp_path, module, args, message):
    (tmp_path / "bad.csv").write_text("a,b\nx,y\n")
    (tmp_path / "in.csv").write_text("timestamp,address,operation,size\n1,0x40,R,64\n")
    result = subprocess.run(
        [sys.executable, "-m", module, *args],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 1
    assert result.stderr == f"python -m {module}: error: {message}\n"
