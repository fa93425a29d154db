"""Drivers wiring traces and profiles into the simulators."""

from .cache_driver import CacheRunResult, run_cache_trace
from .driver import simulate_profile, simulate_trace

__all__ = [
    "CacheRunResult",
    "run_cache_trace",
    "simulate_profile",
    "simulate_trace",
]
