"""``scripts/bench_diff.py`` accepts a schema bump only where it is declared.

Schema 11 removed the job-queue service storm (schema 7) and the lint
timings (schema 8) on purpose; older snapshots that lack them are still
broken bench runs and must be rejected.
"""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_diff.py"


@pytest.fixture(scope="module")
def bench_diff():
    spec = importlib.util.spec_from_file_location("bench_diff", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _snapshot(bench_diff, schema):
    """A snapshot with every schema 4-6/9 field and no service/lint field."""
    timings = (
        bench_diff._SCHEMA4_TIMINGS
        + bench_diff._SCHEMA5_TIMINGS
        + bench_diff._SCHEMA6_TIMINGS
        + bench_diff._SCHEMA9_TIMINGS
    )
    fields = (
        bench_diff._SCHEMA4_FIELDS
        + bench_diff._SCHEMA5_FIELDS
        + bench_diff._SCHEMA6_FIELDS
        + bench_diff._SCHEMA9_FIELDS
    )
    data = {key: 1.0 for key in fields}
    data["schema"] = schema
    data["timings_seconds"] = {key: 1.0 for key in timings}
    return data


def _write(tmp_path, data):
    path = tmp_path / f"schema{data['schema']}.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_schema11_without_service_and_lint_fields_is_accepted(bench_diff, tmp_path, capsys):
    path = _write(tmp_path, _snapshot(bench_diff, 11))
    assert bench_diff.main(["bench_diff.py", path, path]) == 0
    assert "profile_build_scalar" in capsys.readouterr().out


def test_schema8_without_service_and_lint_fields_still_fails(bench_diff, tmp_path, capsys):
    path = _write(tmp_path, _snapshot(bench_diff, 8))
    with pytest.raises(SystemExit) as exit_info:
        bench_diff.main(["bench_diff.py", path, path])
    assert exit_info.value.code == 2
    assert "service storm entries" in capsys.readouterr().err
