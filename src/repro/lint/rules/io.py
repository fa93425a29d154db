"""I/O rules: every artifact write must be crash-safe, every hot-path
read bounded.

The result store's warm==cold guarantee assumes no reader can ever
observe a truncated artifact, which holds only if every write in the
repo funnels through :mod:`repro.core.atomic` (temp file + fsync +
same-directory ``os.replace``). A bare ``open(path, "w")`` reintroduces
the torn-write window that helper exists to close.

Similarly, the trace and profile loaders read the compressed bytes in
bounded chunks and never hold the whole compressed file next to its
decompressed payload: a single ``handle.read()`` in one of those modules
silently doubles their peak memory (see ``io-unbounded-read``).
"""

from __future__ import annotations

import ast
import re
from typing import Optional

from ..engine import LintContext, Rule, register

#: A plausible ``open`` mode string: only mode characters, short.
_MODE_RE = re.compile(r"^[rwaxbt+U]{1,4}$")


def _write_mode(call: ast.Call, mode_arg_index: int) -> Optional[str]:
    """The literal write mode of an ``open``-style call, if statically visible."""
    candidates = []
    if len(call.args) > mode_arg_index:
        candidates.append(call.args[mode_arg_index])
    for keyword in call.keywords:
        if keyword.arg == "mode":
            candidates.append(keyword.value)
    for candidate in candidates:
        if isinstance(candidate, ast.Constant) and isinstance(candidate.value, str):
            mode = candidate.value
            if _MODE_RE.match(mode) and any(ch in mode for ch in "wax"):
                return mode
    return None


#: The modules that read trace and profile files: file sizes there scale
#: with trace length, so an unbounded read of the compressed file is an
#: O(trace) memory spike on top of the decompressed payload.
_HOT_READ_MODULES = (
    ("core", "tracefile.py"),
    ("core", "serialization.py"),
    ("core", "ioutil.py"),
)


def _is_unbounded_size(call: ast.Call) -> bool:
    """True when a ``.read`` call asks for everything at once."""
    if len(call.args) > 1 or call.keywords:
        return False  # not a plain .read(size) shape; out of scope
    if not call.args:
        return True
    size = call.args[0]
    if isinstance(size, ast.Constant):
        return size.value is None
    # -1 parses as UnaryOp(USub, Constant(1)).
    return (
        isinstance(size, ast.UnaryOp)
        and isinstance(size.op, ast.USub)
        and isinstance(size.operand, ast.Constant)
        and size.operand.value == 1
    )


@register
class UnboundedReadRule(Rule):
    """Trace/profile loaders must read the compressed file in bounded chunks.

    Flags argless ``.read()`` (and the equivalent ``.read(-1)`` /
    ``.read(None)``) plus ``Path.read_bytes``/``read_text`` inside the
    modules that open trace or profile files: those files scale with
    trace length, so one unbounded read is an O(trace) allocation.
    Bounded reads (``.read(CHUNK_BYTES)``) pass. A deliberate
    whole-file read of a small artifact documents the exception with
    ``# lint: ignore[io-unbounded-read]``.
    """

    rule_id = "io-unbounded-read"
    description = "unbounded file read on a trace/profile hot path"

    def check(self, context: LintContext) -> None:
        if not any(context.is_module(*parts) for parts in _HOT_READ_MODULES):
            return
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr == "read" and _is_unbounded_size(node):
                context.report(
                    node,
                    self.rule_id,
                    ".read() slurps the whole stream; read in bounded "
                    "chunks (see repro.core.ioutil)",
                )
            elif func.attr in ("read_bytes", "read_text"):
                context.report(
                    node,
                    self.rule_id,
                    f".{func.attr}(...) materializes the whole file; read "
                    "in bounded chunks (see repro.core.ioutil)",
                )


@register
class AtomicWriteRule(Rule):
    """File writes must go through ``repro.core.atomic``.

    Flags ``open(..., "w")``, ``Path.open("w")`` (any mode containing
    ``w``/``a``/``x``) and ``Path.write_text``/``write_bytes``. The
    implementation module itself is exempt. Streaming sinks that flush
    line-by-line on purpose (e.g. the JSONL event sink) document the
    exception with ``# lint: ignore[io-atomic-write]``.
    """

    rule_id = "io-atomic-write"
    description = "non-atomic file write; use repro.core.atomic"

    def check(self, context: LintContext) -> None:
        if context.is_module("core", "atomic.py"):
            return
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id == "open":
                mode = _write_mode(node, 1)
                if mode is not None:
                    context.report(
                        node,
                        self.rule_id,
                        f"open(..., {mode!r}) is not crash-safe; use "
                        "repro.core.atomic.atomic_write_text/bytes",
                    )
            elif isinstance(func, ast.Attribute) and func.attr == "open":
                # Path.open("w") puts the mode first; gzip.open(path, "wt")
                # puts it second — check both slots.
                mode = _write_mode(node, 0) or _write_mode(node, 1)
                if mode is not None:
                    context.report(
                        node,
                        self.rule_id,
                        f".open(..., {mode!r}) is not crash-safe; use "
                        "repro.core.atomic.atomic_write_text/bytes",
                    )
            elif isinstance(func, ast.Attribute) and func.attr in (
                "write_text",
                "write_bytes",
            ):
                context.report(
                    node,
                    self.rule_id,
                    f".{func.attr}(...) is not crash-safe; use "
                    "repro.core.atomic.atomic_write_text/bytes",
                )
