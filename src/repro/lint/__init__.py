"""``repro.lint`` — determinism & invariant static analysis + sanitizers.

The reproduction's guarantees (figure stats bit-identical under
``--jobs N``, warm cache byte-identical to cold, crc32-stable seeding)
rest on conventions no test exercises directly: randomness flows only
through seeded ``random.Random`` objects, simulation code never reads
the wall clock, every artifact write is atomic, nothing iterates a set
into serialized output. This package turns those conventions into
machine-checked rules:

* :func:`lint_paths` / :func:`lint_source` — the per-file linter (also
  ``python -m repro.lint src/``): each file is parsed once and the
  ``det-*``, ``io-*``, ``api-*`` and ``perf-slots`` rules run over its
  tree. Per-line ``# lint: ignore[rule-id]`` suppressions (anchored to
  statement spans, so a decorated ``def``'s findings can be suppressed
  at the decorator) and unused-suppression detection;
* :mod:`repro.lint.sanitize` — runtime checkers behind flags: the
  :class:`~repro.lint.sanitize.TraceInvariantChecker` the sim drivers
  consult, and the ``--check-determinism`` double-run harness.
"""

from .engine import (
    SYNTAX_ERROR,
    UNUSED_SUPPRESSION,
    Finding,
    LintContext,
    Rule,
    all_rules,
    lint_paths,
    lint_source,
    register,
)

__all__ = [
    "SYNTAX_ERROR",
    "UNUSED_SUPPRESSION",
    "Finding",
    "LintContext",
    "Rule",
    "all_rules",
    "lint_paths",
    "lint_source",
    "register",
]
