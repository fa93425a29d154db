"""Set-associative write-back LRU cache hierarchy (atomic mode)."""

from .cache import AccessResult, Cache, CacheConfig, CacheStats
from .hierarchy import CacheHierarchy, paper_l1_config, paper_l2_config
from .prefetch import (
    NextLinePrefetcher,
    PrefetchingCache,
    PrefetchStats,
    Prefetcher,
    StridePrefetcher,
)

__all__ = [
    "AccessResult",
    "Cache",
    "CacheConfig",
    "CacheHierarchy",
    "CacheStats",
    "NextLinePrefetcher",
    "PrefetchStats",
    "Prefetcher",
    "PrefetchingCache",
    "StridePrefetcher",
    "paper_l1_config",
    "paper_l2_config",
]
