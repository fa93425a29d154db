"""The memoization correctness bar: warm == cold, bit for bit.

A figure run served from the cross-run store must be indistinguishable
from a cold serial run — same dicts, same floats, same JSON bytes — and
a corrupted cache must heal itself (recompute) rather than leak garbage
into results.
"""

import json

import pytest

from repro import obs, store
from repro.eval import comparison, experiments
from repro.eval.parallel import jobs_for, prewarm

SMALL = 1_200
SPEC_SMALL = 1_500
SPEC_SUBSET = ("gobmk", "mcf")


def _clear_process_caches():
    comparison.clear_cache()
    experiments._SPEC_SYNTH_CACHE.clear()
    experiments._SPEC_SIZE_CACHE.clear()


@pytest.fixture(autouse=True)
def isolated(tmp_path):
    _clear_process_caches()
    store.deactivate()
    obs.disable()
    yield
    _clear_process_caches()
    store.deactivate()
    obs.disable()


def test_fig6_warm_cache_bit_identical_to_cold_serial(tmp_path):
    # Cold serial run, no store anywhere near it: the reference.
    cold = experiments.figure_6(SMALL)

    # Cold run *through* the store (populates it).
    _clear_process_caches()
    memo = store.configure(tmp_path / "cache")
    prewarm(jobs_for("fig6", SMALL), processes=1)
    populated = experiments.figure_6(SMALL)
    assert populated == cold
    assert memo.misses > 0 and memo.hits == 0

    # Warm run in a "fresh process" (in-process caches dropped).
    _clear_process_caches()
    memo = store.configure(tmp_path / "cache")
    obs.enable()
    try:
        prewarm(jobs_for("fig6", SMALL), processes=1)
        warm = experiments.figure_6(SMALL)
        counters = obs.active().snapshot()["counters"]
    finally:
        obs.disable()

    assert warm == cold
    # Byte-level identity of the serialized results, not just ==.
    assert json.dumps(warm, sort_keys=True) == json.dumps(cold, sort_keys=True)
    # Everything came from the store; nothing was simulated.
    assert memo.hits == len(jobs_for("fig6", SMALL))
    assert memo.misses == 0
    assert counters.get("eval.runs.computed", 0) == 0
    assert counters["eval.jobs.memoized"] == len(jobs_for("fig6", SMALL))


def test_fig17_and_fig14_payloads_roundtrip_through_store(tmp_path):
    cold_17 = experiments.figure_17(SPEC_SMALL, benchmarks=SPEC_SUBSET)
    cold_14 = experiments.figure_14(SPEC_SMALL, benchmarks=SPEC_SUBSET)

    _clear_process_caches()
    store.configure(tmp_path / "cache")
    prewarm(jobs_for("fig17", SPEC_SMALL, benchmarks=SPEC_SUBSET), processes=1)
    prewarm(jobs_for("fig14", SPEC_SMALL, benchmarks=SPEC_SUBSET), processes=1)

    _clear_process_caches()
    memo = store.configure(tmp_path / "cache")
    prewarm(jobs_for("fig17", SPEC_SMALL, benchmarks=SPEC_SUBSET), processes=1)
    prewarm(jobs_for("fig14", SPEC_SMALL, benchmarks=SPEC_SUBSET), processes=1)
    assert memo.hits == len(SPEC_SUBSET) * 2 and memo.misses == 0

    assert experiments.figure_17(SPEC_SMALL, benchmarks=SPEC_SUBSET) == cold_17
    assert experiments.figure_14(SPEC_SMALL, benchmarks=SPEC_SUBSET) == cold_14


def test_corrupted_blob_triggers_recompute_with_identical_result(tmp_path):
    cold = experiments.figure_10(SMALL)

    _clear_process_caches()
    store.configure(tmp_path / "cache")
    prewarm(jobs_for("fig10", SMALL), processes=1)

    # Corrupt every stored entry (its digest no longer matches).
    for entry in (tmp_path / "cache").rglob("*"):
        if entry.is_file():
            data = entry.read_bytes()
            entry.write_bytes(data[:32] + b"rotten" + data[38:])

    _clear_process_caches()
    memo = store.configure(tmp_path / "cache")
    executed = prewarm(jobs_for("fig10", SMALL), processes=1)
    warm = experiments.figure_10(SMALL)

    assert warm == cold  # recomputed, not read back rotten
    assert memo.corrupt == len(jobs_for("fig10", SMALL))
    assert executed == len(jobs_for("fig10", SMALL))

    # And the heal is durable: the next fresh run hits cleanly.
    _clear_process_caches()
    memo = store.configure(tmp_path / "cache")
    assert prewarm(jobs_for("fig10", SMALL), processes=1) == 0
    assert memo.hits == len(jobs_for("fig10", SMALL))
    assert experiments.figure_10(SMALL) == cold


def test_parallel_prewarm_populates_store_for_serial_warm_run(tmp_path):
    cold = experiments.figure_10(SMALL)

    _clear_process_caches()
    store.configure(tmp_path / "cache")
    prewarm(jobs_for("fig10", SMALL), processes=2)  # workers fill the store

    _clear_process_caches()
    memo = store.configure(tmp_path / "cache")
    assert prewarm(jobs_for("fig10", SMALL), processes=1) == 0
    assert memo.hits == len(jobs_for("fig10", SMALL))
    assert experiments.figure_10(SMALL) == cold
