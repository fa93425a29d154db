"""The package version has exactly one source: ``repro.__version__``.

The version is folded into result-store cache keys, so a second,
drifting copy in ``pyproject.toml`` would make installed metadata and
cache invalidation disagree.
"""

import re
from pathlib import Path

import repro

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def _tables(text):
    """``table name -> list of lines`` for a TOML file (no nesting needed)."""
    tables = {"": []}
    current = ""
    for line in text.splitlines():
        header = re.match(r"^\[([^\]]+)\]\s*$", line.strip())
        if header:
            current = header.group(1).strip()
            tables.setdefault(current, [])
        else:
            tables[current].append(line.strip())
    return tables


def test_pyproject_holds_no_static_version():
    tables = _tables(PYPROJECT.read_text())
    project = tables["project"]
    assert not any(re.match(r"^version\s*=", line) for line in project)
    assert any(re.match(r'^dynamic\s*=\s*\[.*"version".*\]', line) for line in project)
    dynamic = tables["tool.setuptools.dynamic"]
    assert any(
        re.match(r'^version\s*=\s*\{\s*attr\s*=\s*"repro\.__version__"\s*\}', line)
        for line in dynamic
    )


def test_version_is_a_release_string():
    assert re.fullmatch(r"\d+\.\d+\.\d+", repro.__version__)
