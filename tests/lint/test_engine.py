"""Engine-level behaviour: parsing, selection, ordering, file discovery."""

from __future__ import annotations

import pytest

from repro.lint import (
    SYNTAX_ERROR,
    Finding,
    all_rules,
    lint_paths,
    lint_source,
)
from repro.lint.engine import _module_parts, iter_python_files

PATH = "src/repro/core/fake.py"


def test_syntax_error_becomes_finding_not_exception():
    findings = lint_source("def broken(:\n", path=PATH)
    assert len(findings) == 1
    assert findings[0].rule_id == SYNTAX_ERROR
    assert findings[0].line == 1


def test_findings_are_sorted_by_line_then_column():
    source = (
        "import time\n"
        "pair = (open('x', 'w'), time.time())\n"
        "later = time.time()\n"
    )
    findings = lint_source(source, path=PATH)
    assert [(f.line, f.rule_id) for f in findings] == [
        (2, "io-atomic-write"),
        (2, "det-wall-clock"),
        (3, "det-wall-clock"),
    ]
    assert findings[0].col < findings[1].col


def test_select_restricts_to_named_rules():
    source = "import time\npair = (open('x', 'w'), time.time())\n"
    findings = lint_source(source, path=PATH, select=["io-atomic-write"])
    assert [f.rule_id for f in findings] == ["io-atomic-write"]


def test_ignore_drops_named_rules():
    source = "import time\npair = (open('x', 'w'), time.time())\n"
    findings = lint_source(source, path=PATH, ignore=["io-atomic-write"])
    assert [f.rule_id for f in findings] == ["det-wall-clock"]


def test_unknown_rule_id_raises():
    with pytest.raises(ValueError, match="no-such-rule"):
        lint_source("x = 1\n", path=PATH, select=["no-such-rule"])
    with pytest.raises(ValueError, match="no-such-rule"):
        lint_source("x = 1\n", path=PATH, ignore=["no-such-rule"])


def test_all_rules_registry_is_stable():
    rules = all_rules()
    assert set(rules) == {
        "api-mutable-default",
        "api-star-import",
        "det-float-compare",
        "det-set-iteration",
        "det-unseeded-random",
        "det-wall-clock",
        "io-atomic-write",
        "io-unbounded-read",
        "perf-slots",
    }


def test_finding_render_format():
    finding = Finding(path="a.py", line=3, col=7, rule_id="det-wall-clock",
                      message="boom")
    assert finding.render() == "a.py:3:7: det-wall-clock: boom"
    assert finding.to_dict() == {
        "path": "a.py", "line": 3, "col": 7,
        "rule": "det-wall-clock", "message": "boom",
    }


def test_module_parts_extraction():
    assert _module_parts("src/repro/dram/controller.py") == (
        "dram", "controller.py")
    assert _module_parts("repro/obs/clock.py") == ("obs", "clock.py")
    # outside the repro package the full path is kept, which never
    # matches a (package, module) scope tuple
    assert _module_parts("scripts/bench_diff.py") == (
        "scripts", "bench_diff.py")


def test_iter_python_files_skips_pycache(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "mod.py").write_text("x = 1\n")
    (tmp_path / "pkg" / "__pycache__").mkdir()
    (tmp_path / "pkg" / "__pycache__" / "mod.cpython-311.py").write_text("")
    (tmp_path / "pkg" / "notes.txt").write_text("not python")
    files = iter_python_files([tmp_path])
    assert [path.name for path in files] == ["mod.py"]


def test_iter_python_files_missing_path_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        iter_python_files([tmp_path / "does-not-exist"])


def test_lint_paths_reports_real_files(tmp_path):
    bad = tmp_path / "repro" / "core" / "fake.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import time\nstamp = time.time()\n")
    findings = lint_paths([tmp_path])
    assert [f.rule_id for f in findings] == ["det-wall-clock"]
    assert findings[0].path.endswith("fake.py")
