"""A missing, unwritable or corrupt file ends a CLI with one error line."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"


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
    ],
)
def test_file_errors_print_one_line_and_exit_1(tmp_path, module, args, message):
    (tmp_path / "bad.csv").write_text("a,b\nx,y\n")
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
