"""Every pinned cache case, recomputed and compared with its golden.

The goldens were recorded on the original scalar line-scan cache (see
``golden_cases.py``); the dict-LRU hierarchy must reproduce them bit
for bit through every entry point: request objects, column traces of
any chunk size, and the stdlib column fallback.
"""

import pytest

from repro.cache.hierarchy import CacheHierarchy, paper_l2_config
from repro.core.columnar import ColumnarTrace
from repro.sim.cache_driver import run_cache_trace

from . import golden_cases

GOLDENS = golden_cases.load_goldens()

#: Hierarchy cases replayed through the other entry points: a streaming,
#: a pointer-chasing and a write-back-heavy one.
ENTRY_CASES = (("lbm", "16KB-2way"), ("mcf", "32KB-4way"), ("gcc", "1KB-1way"))


def _golden(name, label):
    return GOLDENS[f"spec/{name}/{label}"]


def _digest(l1, l2):
    return golden_cases.digest(golden_cases.levels_payload(l1, l2))


def test_every_case_is_pinned():
    assert sorted(GOLDENS) == sorted(golden_cases.CASES)


@pytest.mark.parametrize("case", sorted(golden_cases.CASES))
def test_case_matches_golden(case):
    assert golden_cases.digest(golden_cases.CASES[case]()) == GOLDENS[case]


@pytest.mark.parametrize("chunk", [1, 7, 1024])
@pytest.mark.parametrize("name,label", ENTRY_CASES)
def test_column_trace_is_chunk_size_invariant(name, label, chunk):
    columns = ColumnarTrace.from_trace(golden_cases.trace(name))
    hierarchy = CacheHierarchy(golden_cases.L1_CONFIGS[label], paper_l2_config())
    hierarchy.run(columns, chunk_requests=chunk)
    assert _digest(hierarchy.l1_stats, hierarchy.l2_stats) == _golden(name, label)


@pytest.mark.parametrize("name,label", ENTRY_CASES)
def test_lazy_request_stream_in_small_chunks(name, label):
    hierarchy = CacheHierarchy(golden_cases.L1_CONFIGS[label], paper_l2_config())
    hierarchy.run(iter(golden_cases.trace(name)), chunk_requests=7)
    assert _digest(hierarchy.l1_stats, hierarchy.l2_stats) == _golden(name, label)


@pytest.mark.parametrize("name,label", ENTRY_CASES)
def test_sanitized_run_matches_golden(name, label):
    config = golden_cases.L1_CONFIGS[label]
    result = run_cache_trace(golden_cases.trace(name), config, sanitize=True)
    assert _digest(result.l1, result.l2) == _golden(name, label)


@pytest.mark.parametrize("name,label", ENTRY_CASES)
def test_stdlib_column_expansion_matches_golden(monkeypatch, name, label):
    monkeypatch.setenv("MOCKTAILS_NO_NUMPY", "1")
    columns = ColumnarTrace.from_trace(golden_cases.trace(name))
    result = run_cache_trace(columns, golden_cases.L1_CONFIGS[label])
    assert _digest(result.l1, result.l2) == _golden(name, label)
