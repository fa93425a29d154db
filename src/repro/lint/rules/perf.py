"""Performance rules: allocation discipline on the hot paths.

The modules below allocate objects per request, per burst or per cache
access; ``__slots__`` there is worth double-digit percent on end-to-end
replay (see PERFORMANCE.md) and also turns attribute typos into hard
errors. New classes in these modules must keep the discipline.
"""

from __future__ import annotations

import ast
from typing import Tuple

from ..engine import LintContext, Rule, register

#: Modules (relative to the ``repro`` package) whose classes allocate on
#: per-request / per-burst / per-access paths.
HOT_PATH_MODULES: Tuple[Tuple[str, ...], ...] = (
    ("core", "request.py"),
    ("core", "columnar.py"),
    ("cache", "cache.py"),
    ("cache", "hierarchy.py"),
    ("dram", "controller.py"),
    ("dram", "address_map.py"),
    ("dram", "batched.py"),
    ("interconnect", "crossbar.py"),
    ("obs", "registry.py"),
)

_ENUM_BASES = {"Enum", "IntEnum", "StrEnum", "Flag", "IntFlag"}


def _base_name(node: ast.AST) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return ""


def _decorator_call(node: ast.AST) -> Tuple[str, Tuple[ast.keyword, ...]]:
    if isinstance(node, ast.Call):
        return _base_name(node.func), tuple(node.keywords)
    return _base_name(node), ()


def _is_exempt(class_def: ast.ClassDef) -> bool:
    for base in class_def.bases:
        name = _base_name(base)
        if name in _ENUM_BASES or name.endswith(("Exception", "Error", "Warning")):
            return True
        if name == "BaseException":
            return True
    for decorator in class_def.decorator_list:
        name, keywords = _decorator_call(decorator)
        if name != "dataclass":
            continue
        for keyword in keywords:
            if (
                keyword.arg == "frozen"
                and isinstance(keyword.value, ast.Constant)
                and keyword.value.value is True
            ):
                # Frozen dataclasses are one-time immutable configs, not
                # hot-path allocations.
                return True
        # A dataclass with field defaults cannot carry a manual
        # __slots__ (class-attribute conflict), and the 3.9 floor rules
        # out @dataclass(slots=True) — exempt until the floor moves.
        for statement in class_def.body:
            if isinstance(statement, ast.AnnAssign) and statement.value is not None:
                return True
    return False


def _declares_slots(class_def: ast.ClassDef) -> bool:
    for statement in class_def.body:
        if isinstance(statement, ast.Assign):
            for target in statement.targets:
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    return True
        if (
            isinstance(statement, ast.AnnAssign)
            and isinstance(statement.target, ast.Name)
            and statement.target.id == "__slots__"
        ):
            return True
    return False


@register
class SlotsRule(Rule):
    """Classes in designated hot-path modules must declare ``__slots__``.

    Exempt: enums, exceptions, frozen dataclasses (one-time configs) and
    dataclasses with field defaults (unslottable under the 3.9 floor).
    """

    rule_id = "perf-slots"
    description = "hot-path class without __slots__"

    def check(self, context: LintContext) -> None:
        if context.module_parts not in HOT_PATH_MODULES:
            return
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if _is_exempt(node) or _declares_slots(node):
                continue
            context.report(
                node,
                self.rule_id,
                f"class {node.name} in a hot-path module must declare "
                "__slots__ (instances are allocated per request/access)",
            )
