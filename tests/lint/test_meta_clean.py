"""Meta-test: the repo's own source tree passes its own linter.

This is the enforcement point for the invariants documented in
DESIGN.md — if a change introduces an unseeded RNG, a wall-clock read
outside ``repro.obs``, a non-atomic write, or strips ``__slots__``
from a hot-path class, this test fails with the exact file:line.
"""

from __future__ import annotations

from pathlib import Path

from repro.lint import lint_paths

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def test_repo_source_is_lint_clean():
    findings = lint_paths([SRC])
    rendered = "\n".join(finding.render() for finding in findings)
    assert findings == [], f"repo source has lint findings:\n{rendered}"


def test_scripts_are_lint_clean():
    scripts = Path(__file__).resolve().parents[2] / "scripts"
    findings = [
        finding
        for finding in lint_paths([scripts])
        # scripts/ sits outside the repro package, so module-scoped
        # exemptions don't apply; hold it to the determinism rules.
        if finding.rule_id.startswith("det-")
    ]
    rendered = "\n".join(finding.render() for finding in findings)
    assert findings == [], f"scripts have determinism findings:\n{rendered}"
