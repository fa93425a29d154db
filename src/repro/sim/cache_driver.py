"""Cache simulation drivers for the Sec. V experiments.

Atomic-mode replay: timestamps are ignored and only request order
matters, matching the paper's gem5 configuration for the CPU/L1 study.
Every input — request objects, column traces, sanitize mode, with or
without numpy — runs the one :class:`~repro.cache.hierarchy.CacheHierarchy`;
sanitize mode only wraps the input stream in an invariant checker.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Union

from ..cache.cache import CacheConfig, CacheStats
from ..cache.hierarchy import CacheHierarchy, paper_l2_config
from ..core.columnar import ColumnarTrace
from ..core.request import MemoryRequest
from ..lint import sanitize as _sanitize


@dataclass
class CacheRunResult:
    """L1 + L2 statistics from one atomic-mode replay."""

    l1: CacheStats
    l2: CacheStats

    @property
    def l1_miss_rate(self) -> float:
        return self.l1.miss_rate

    @property
    def l2_miss_rate(self) -> float:
        return self.l2.miss_rate


def _hierarchy(
    l1_config: Optional[CacheConfig], l2_config: Optional[CacheConfig]
) -> CacheHierarchy:
    return CacheHierarchy(
        l1_config if l1_config is not None else CacheConfig(32 * 1024, 4),
        l2_config if l2_config is not None else paper_l2_config(),
    )


def _checker(sanitize: Optional[bool], label: str):
    """An invariant checker when sanitizing, else ``None``.

    Timestamps are *not* required to be monotonic: atomic-mode replay
    ignores them by construction.
    """
    if sanitize is False or (sanitize is None and not _sanitize.active()):
        return None
    return _sanitize.TraceInvariantChecker(label=label, require_monotonic=False)


def run_cache_trace(
    trace: Union[ColumnarTrace, Iterable[MemoryRequest]],
    l1_config: Optional[CacheConfig] = None,
    l2_config: Optional[CacheConfig] = None,
    sanitize: Optional[bool] = None,
) -> CacheRunResult:
    """Replay a trace through an L1/L2 hierarchy and return statistics.

    ``sanitize=True`` (or process-wide
    :func:`repro.lint.sanitize.enable`) validates addresses, sizes and
    operations.
    """
    hierarchy = _hierarchy(l1_config, l2_config)
    checker = _checker(sanitize, "run_cache_trace")
    if checker is not None:
        requests = trace.iter_requests() if isinstance(trace, ColumnarTrace) else trace
        trace = checker.watch(requests)
    hierarchy.run(trace)
    return CacheRunResult(l1=hierarchy.l1_stats, l2=hierarchy.l2_stats)
