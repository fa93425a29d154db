"""Per-rule fixture tests: planted violations are found at the right lines.

Each fixture under ``fixtures/`` is self-describing: its first line
names the virtual path it should be linted as (``# lint-path: ...``,
which drives module-scoped rules like ``perf-slots``), and every
violating line carries an ``# EXPECT: <rule-id>`` marker. ``*_bad.py``
fixtures must produce exactly their markers; ``*_good.py`` fixtures
must be clean.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Tuple

import pytest

from repro.lint import lint_source

FIXTURES = Path(__file__).parent / "fixtures"


def load_fixture(name: str) -> Tuple[str, str, List[Tuple[int, str]]]:
    text = (FIXTURES / name).read_text()
    lines = text.splitlines()
    assert lines[0].startswith("# lint-path:"), f"{name} missing lint-path header"
    virtual_path = lines[0].split(":", 1)[1].strip()
    expected = []
    for lineno, line in enumerate(lines, start=1):
        if "# EXPECT:" in line:
            expected.append((lineno, line.split("# EXPECT:", 1)[1].strip()))
    return text, virtual_path, expected


def fixture_names(suffix: str) -> List[str]:
    names = sorted(path.name for path in FIXTURES.glob(f"*{suffix}"))
    assert names, f"no fixtures matching *{suffix}"
    return names


@pytest.mark.parametrize("name", fixture_names("_bad.py"))
def test_bad_fixture_findings_match_markers(name):
    text, virtual_path, expected = load_fixture(name)
    assert expected, f"{name} has no EXPECT markers"
    findings = lint_source(text, path=virtual_path)
    actual = [(finding.line, finding.rule_id) for finding in findings]
    assert actual == sorted(expected)
    assert all(finding.path == virtual_path for finding in findings)
    assert all(finding.col >= 1 for finding in findings)


@pytest.mark.parametrize("name", fixture_names("_good.py"))
def test_good_fixture_is_clean(name):
    text, virtual_path, expected = load_fixture(name)
    assert not expected, f"{name} is a good fixture but has EXPECT markers"
    assert lint_source(text, path=virtual_path) == []


def test_every_rule_has_fixture_coverage():
    """Each registered rule appears in at least one bad fixture's markers."""
    from repro.lint import all_rules

    covered = set()
    for name in fixture_names("_bad.py"):
        _, _, expected = load_fixture(name)
        covered.update(rule_id for _, rule_id in expected)
    assert covered == set(all_rules())


def test_wall_clock_allowed_inside_obs():
    source = "import time\nstamp = time.time()\n"
    assert lint_source(source, path="src/repro/obs/clock.py") == []
    findings = lint_source(source, path="src/repro/dram/clock.py")
    assert [f.rule_id for f in findings] == ["det-wall-clock"]


def test_atomic_write_allowed_inside_core_atomic():
    source = "handle = open('x', 'w')\n"
    assert lint_source(source, path="src/repro/core/atomic.py") == []
    findings = lint_source(source, path="src/repro/core/ioutil.py")
    assert [f.rule_id for f in findings] == ["io-atomic-write"]


def test_slots_rule_only_in_designated_modules():
    source = "class Plain:\n    def __init__(self):\n        self.x = 1\n"
    assert lint_source(source, path="src/repro/eval/experiments.py") == []
    findings = lint_source(source, path="src/repro/cache/cache.py")
    assert [(f.rule_id, f.line) for f in findings] == [("perf-slots", 1)]
