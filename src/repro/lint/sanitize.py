"""Runtime sanitizers: invariant checks the AST linter cannot prove.

Two tools live here:

* :class:`TraceInvariantChecker` — validates every request flowing into
  a simulation driver (monotonic timestamps, non-negative aligned
  addresses, legal read/write operations, positive sizes). The sim
  drivers consult :func:`active` so one :func:`enable` call (or the
  ``--sanitize`` flag of ``python -m repro.eval``) turns checking on for
  every driver in the process; a driver-level ``sanitize=`` argument
  overrides per call.
* :func:`check_determinism` — the double-run harness behind
  ``python -m repro.lint --check-determinism``: runs one experiment
  twice in-process and diffs the canonical JSON of the results. Any
  leaked global state (an unseeded RNG, order-dependent accumulation)
  shows up as a byte diff.

Sanitizing never changes results: the checker only *observes* the
request stream, so a clean run produces bit-identical statistics with
checking on or off.
"""

from __future__ import annotations

import json
from typing import Iterable, Iterator, Optional, Tuple

from ..core.request import MemoryRequest, Operation


class InvariantViolation(RuntimeError):
    """A request stream broke a simulation invariant."""


class TraceInvariantChecker:
    """Validates a time-ordered request stream as it flows past.

    Parameters:
        alignment: required address alignment in bytes (1 = any address).
        max_address: exclusive upper bound on ``request.end_address``
            (``None`` = unbounded).
        require_monotonic: require non-decreasing timestamps — the
            contract every driver's merge logic assumes.
        label: stream name used in violation messages.
    """

    __slots__ = ("alignment", "max_address", "require_monotonic", "label",
                 "checked", "_last_timestamp")

    def __init__(
        self,
        alignment: int = 1,
        max_address: Optional[int] = None,
        require_monotonic: bool = True,
        label: str = "trace",
    ) -> None:
        if alignment <= 0:
            raise ValueError(f"alignment must be positive, got {alignment}")
        self.alignment = alignment
        self.max_address = max_address
        self.require_monotonic = require_monotonic
        self.label = label
        self.checked = 0
        self._last_timestamp: Optional[int] = None

    def _fail(self, index: int, message: str) -> None:
        raise InvariantViolation(f"{self.label}[{index}]: {message}")

    def check(self, request: MemoryRequest) -> MemoryRequest:
        """Validate one request; returns it unchanged, raises on violation."""
        index = self.checked
        timestamp = request.timestamp
        if timestamp < 0:
            self._fail(index, f"negative timestamp {timestamp}")
        if (
            self.require_monotonic
            and self._last_timestamp is not None
            and timestamp < self._last_timestamp
        ):
            self._fail(
                index,
                f"timestamp {timestamp} goes backwards "
                f"(previous request at {self._last_timestamp})",
            )
        if request.address < 0:
            self._fail(index, f"negative address {request.address}")
        if self.alignment > 1 and request.address % self.alignment:
            self._fail(
                index,
                f"address 0x{request.address:x} not {self.alignment}-byte aligned",
            )
        if self.max_address is not None and request.end_address > self.max_address:
            self._fail(
                index,
                f"request [0x{request.address:x}, 0x{request.end_address:x}) "
                f"exceeds address space 0x{self.max_address:x}",
            )
        if request.size <= 0:
            self._fail(index, f"non-positive size {request.size}")
        operation = request.operation
        if operation is not Operation.READ and operation is not Operation.WRITE:
            self._fail(index, f"illegal operation {operation!r} (not READ/WRITE)")
        self._last_timestamp = timestamp
        self.checked += 1
        return request

    def watch(self, requests: Iterable[MemoryRequest]) -> Iterator[MemoryRequest]:
        """Yield ``requests`` unchanged, validating each one."""
        for request in requests:
            yield self.check(request)


# -- process-wide sanitize mode ---------------------------------------------

_ACTIVE_CONFIG: Optional[dict] = None


def enable(
    alignment: int = 1,
    max_address: Optional[int] = None,
    require_monotonic: bool = True,
) -> None:
    """Turn on sanitize mode for every sim driver in this process."""
    global _ACTIVE_CONFIG
    _ACTIVE_CONFIG = {
        "alignment": alignment,
        "max_address": max_address,
        "require_monotonic": require_monotonic,
    }


def disable() -> None:
    """Turn sanitize mode back off."""
    global _ACTIVE_CONFIG
    _ACTIVE_CONFIG = None


def active() -> bool:
    """Whether process-wide sanitize mode is on."""
    return _ACTIVE_CONFIG is not None


def make_checker(label: str) -> Optional[TraceInvariantChecker]:
    """A checker per the process-wide config, or ``None`` when off."""
    if _ACTIVE_CONFIG is None:
        return None
    return TraceInvariantChecker(label=label, **_ACTIVE_CONFIG)


# -- determinism double-run harness -----------------------------------------


def canonical_json(result: object) -> str:
    """Canonical serialized form used for determinism diffs."""
    from ..eval.__main__ import _json_sanitize

    return json.dumps(_json_sanitize(result), indent=2, sort_keys=True)


def check_determinism(
    experiment: str = "fig3", num_requests: int = 1000
) -> Tuple[bool, str, str]:
    """Run ``experiment`` twice and compare canonical JSON.

    Returns ``(identical, first_payload, second_payload)``. Runs happen
    in one process with identical seeds, so any divergence means hidden
    global state (unseeded RNG, mutation of shared caches, hash-order
    leakage into results).
    """
    from ..eval.__main__ import EXPERIMENTS

    if experiment not in EXPERIMENTS:
        raise ValueError(
            f"unknown experiment {experiment!r}; choose from "
            f"{', '.join(sorted(EXPERIMENTS))}"
        )
    runner, _ = EXPERIMENTS[experiment]
    first = canonical_json(runner(num_requests))
    second = canonical_json(runner(num_requests))
    return first == second, first, second


def first_divergence(first: str, second: str) -> str:
    """Human-readable description of where two payloads first differ."""
    first_lines = first.splitlines()
    second_lines = second.splitlines()
    for number, (a, b) in enumerate(zip(first_lines, second_lines), start=1):
        if a != b:
            return f"line {number}: {a.strip()!r} != {b.strip()!r}"
    if len(first_lines) != len(second_lines):
        return (
            f"payload lengths differ: {len(first_lines)} vs "
            f"{len(second_lines)} lines"
        )
    return "payloads identical"
