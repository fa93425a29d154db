"""Core machinery of ``repro.lint``: findings, rule registry, file walker.

The linter enforces the repo's reproducibility invariants (seeded RNG
only, no ambient wall clock in simulation paths, atomic artifact writes,
ordered iteration before serialization, ``__slots__`` on hot-path
classes). Each file is linted on its own: parse it once, run the
selected rules over the tree, then filter the findings through the
file's suppression comments.

Suppressions
------------
A finding on line N is silenced by a comment on that line::

    handle = path.open("w")  # lint: ignore[io-atomic-write]

Several ids may be listed (``# lint: ignore[a, b]``); a bare
``# lint: ignore`` silences every rule on the line. Matching is
anchored to *statement spans*, not single lines: a finding attributed
to a decorated function's ``def`` line can be suppressed on the
decorator line (or anywhere else in the statement's header), and a
multi-line call can carry its suppression on any of its lines.
Suppressions that silence nothing are themselves reported
(``lint-unused-suppression``), so stale exemptions cannot linger after
the underlying code is fixed.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Type

#: Rule id reported for stale suppression comments.
UNUSED_SUPPRESSION = "lint-unused-suppression"
#: Rule id reported for files that fail to parse.
SYNTAX_ERROR = "lint-syntax-error"

_SUPPRESSION_RE = re.compile(
    r"#\s*lint:\s*ignore(?:\[(?P<ids>[A-Za-z0-9_,\- ]*)\])?"
)


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a specific source location."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id}: {self.message}"

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "message": self.message,
        }


@dataclass
class LintContext:
    """Everything a rule needs to inspect one file."""

    path: str
    tree: ast.AST
    source: str
    #: Path components below the ``repro`` package (empty when the file
    #: is outside it), e.g. ``("dram", "controller.py")``.
    module_parts: Tuple[str, ...] = ()
    findings: List[Finding] = field(default_factory=list)

    def report(self, node: ast.AST, rule_id: str, message: str) -> None:
        self.findings.append(
            Finding(
                path=self.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                rule_id=rule_id,
                message=message,
            )
        )

    def in_package(self, *packages: str) -> bool:
        """True when the file lives under any of the named subpackages."""
        return bool(self.module_parts) and self.module_parts[0] in packages

    def is_module(self, *parts: str) -> bool:
        """True when the file is exactly ``repro/<parts...>``."""
        return self.module_parts == parts


class Rule:
    """Base class: subclasses set ``rule_id``/``description``, implement ``check``."""

    rule_id: str = ""
    description: str = ""

    def check(self, context: LintContext) -> None:  # pragma: no cover - interface
        raise NotImplementedError


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(rule_class: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not rule_class.rule_id:
        raise ValueError(f"{rule_class.__name__} has no rule_id")
    if rule_class.rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id: {rule_class.rule_id}")
    _REGISTRY[rule_class.rule_id] = rule_class
    return rule_class


def all_rules() -> Dict[str, Type[Rule]]:
    """The registered rules, importing the built-in rule modules once."""
    from . import rules  # noqa: F401  (registration side effect)

    return dict(_REGISTRY)


def _module_parts(path: str) -> Tuple[str, ...]:
    parts = PurePosixPath(Path(path).as_posix()).parts
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            return tuple(parts[index + 1:])
    return tuple(parts)


def _parse_suppressions(source: str) -> Dict[int, Optional[Set[str]]]:
    """Map line number -> suppressed rule ids (``None`` = all rules)."""
    suppressions: Dict[int, Optional[Set[str]]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _SUPPRESSION_RE.search(token.string)
            if match is None:
                continue
            ids = match.group("ids")
            if ids is None:
                suppressions[token.start[0]] = None
            else:
                names = {name.strip() for name in ids.split(",") if name.strip()}
                suppressions[token.start[0]] = names
    except tokenize.TokenError:
        pass  # parse errors are reported separately
    return suppressions


def _statement_spans(tree: ast.AST) -> List[Tuple[int, int]]:
    """Line spans suppressions anchor over (see module docstring).

    ``def``/``class`` statements span from their first decorator line
    through the end of the header (the line before the body starts);
    every other statement spans its own lines. Only multi-line spans
    are kept — single-line statements already match exactly.
    """
    spans: List[Tuple[int, int]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            start = node.lineno
            for decorator in node.decorator_list:
                start = min(start, decorator.lineno)
            body_start = node.body[0].lineno if node.body else node.lineno
            end = max(node.lineno, body_start - 1)
        else:
            start = node.lineno
            end = getattr(node, "end_lineno", None) or node.lineno
        if end > start:
            spans.append((start, end))
    return sorted(spans)


def _span_lookup(spans: Sequence[Tuple[int, int]]) -> Dict[int, Tuple[int, int]]:
    """Line -> smallest enclosing span (innermost statement wins)."""
    lookup: Dict[int, Tuple[int, int]] = {}
    for start, end in spans:
        for line in range(start, end + 1):
            current = lookup.get(line)
            if current is None or (end - start) < (current[1] - current[0]):
                lookup[line] = (start, end)
    return lookup


def _expand_selectors(
    selectors: Sequence[str], registry: Dict[str, Type[Rule]]
) -> List[str]:
    """Expand family prefixes (``det`` -> every ``det-*`` rule)."""
    expanded: List[str] = []
    unknown: List[str] = []
    for selector in selectors:
        if selector in registry or selector == UNUSED_SUPPRESSION:
            expanded.append(selector)
            continue
        family = sorted(
            rule_id for rule_id in registry
            if rule_id.startswith(selector + "-")
        )
        if family:
            expanded.extend(family)
        else:
            unknown.append(selector)
    if unknown:
        raise ValueError(f"unknown rule id(s): {', '.join(sorted(unknown))}")
    return expanded


def _select_rules(
    select: Optional[Sequence[str]], ignore: Optional[Sequence[str]]
) -> List[Rule]:
    registry = all_rules()
    chosen = (
        _expand_selectors(select, registry) if select else list(registry)
    )
    if ignore:
        dropped = set(_expand_selectors(ignore, registry))
        chosen = [rule_id for rule_id in chosen if rule_id not in dropped]
    return [registry[rule_id]() for rule_id in chosen if rule_id in registry]


def _apply_suppressions(
    path: str,
    tree: ast.AST,
    source: str,
    findings: Sequence[Finding],
    check_unused: bool,
) -> List[Finding]:
    """Filter one file's findings through its suppression comments."""
    suppressions = _parse_suppressions(source)
    lookup = _span_lookup(_statement_spans(tree))
    used_lines: Set[int] = set()
    kept: List[Finding] = []
    for finding in findings:
        candidates = [finding.line]
        span = lookup.get(finding.line)
        if span is not None:
            candidates.extend(
                line for line in range(span[0], span[1] + 1)
                if line != finding.line
            )
        matched: Optional[int] = None
        for candidate in candidates:
            if candidate not in suppressions:
                continue
            allowed = suppressions[candidate]
            if allowed is None or finding.rule_id in allowed:
                matched = candidate
                break
        if matched is not None:
            used_lines.add(matched)
        else:
            kept.append(finding)
    if check_unused:
        for line in sorted(set(suppressions) - used_lines):
            ids = suppressions[line]
            label = "all rules" if ids is None else ", ".join(sorted(ids))
            kept.append(
                Finding(
                    path=path,
                    line=line,
                    col=1,
                    rule_id=UNUSED_SUPPRESSION,
                    message=f"suppression ({label}) matches no finding; remove it",
                )
            )
    return kept


def _lint_file(
    source: str, path: str, rules: Sequence[Rule], check_unused: bool
) -> List[Finding]:
    """Parse one file, run ``rules`` over it and apply its suppressions."""
    try:
        tree = ast.parse(source)
    except SyntaxError as error:
        return [
            Finding(
                path=path,
                line=error.lineno or 1,
                col=(error.offset or 1),
                rule_id=SYNTAX_ERROR,
                message=f"file does not parse: {error.msg}",
            )
        ]
    context = LintContext(
        path=path, tree=tree, source=source, module_parts=_module_parts(path)
    )
    for rule in rules:
        rule.check(context)
    return _apply_suppressions(path, tree, source, context.findings, check_unused)


def _check_unused(
    select: Optional[Sequence[str]], ignore: Optional[Sequence[str]]
) -> bool:
    return (
        select is None or UNUSED_SUPPRESSION in select
    ) and UNUSED_SUPPRESSION not in set(ignore or [])


def lint_source(
    source: str,
    path: str = "<string>",
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Lint one file's contents; returns sorted findings."""
    rules = _select_rules(select, ignore)
    return sorted(_lint_file(source, path, rules, _check_unused(select, ignore)))


def iter_python_files(paths: Iterable[str]) -> List[Path]:
    """Expand files/directories into a sorted, de-duplicated .py file list."""
    seen: Set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            seen.update(p for p in path.rglob("*.py") if "__pycache__" not in p.parts)
        elif path.suffix == ".py":
            seen.add(path)
        elif not path.exists():
            raise FileNotFoundError(f"no such file or directory: {path}")
    return sorted(seen)


def lint_paths(
    paths: Iterable[str],
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Lint every ``.py`` file under ``paths``; returns sorted findings."""
    rules = _select_rules(select, ignore)
    check_unused = _check_unused(select, ignore)
    findings: List[Finding] = []
    for file_path in iter_python_files(paths):
        source = file_path.read_text(encoding="utf-8")
        findings.extend(_lint_file(source, file_path.as_posix(), rules, check_unused))
    return sorted(findings)
