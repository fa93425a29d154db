"""Experiment memoization: key derivation, durability, corruption recovery."""

import dataclasses
import hashlib
import json
import os
import pickle
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import store
from repro.core.columnar import numpy_or_none
from repro.eval.parallel import DramJob, SizeJob, SpecJob
from repro.store import ExperimentMemo, cache_key

PACKAGE = Path(repro.__file__).parent


@pytest.fixture
def memo(tmp_path):
    return ExperimentMemo(tmp_path / "cache")


# ---------------------------------------------------------------------------
# Key derivation / invalidation rules
# ---------------------------------------------------------------------------


def test_cache_key_is_stable():
    job = DramJob("hevc1", 2000, seed=0, interval=500_000)
    assert cache_key(job) == cache_key(DramJob("hevc1", 2000, seed=0, interval=500_000))


def test_cache_key_covers_every_job_field():
    base = DramJob("hevc1", 2000)
    assert cache_key(base) != cache_key(DramJob("trex1", 2000))
    assert cache_key(base) != cache_key(DramJob("hevc1", 2001))
    assert cache_key(base) != cache_key(DramJob("hevc1", 2000, seed=1))
    assert cache_key(base) != cache_key(DramJob("hevc1", 2000, interval=250_000))
    assert cache_key(base) != cache_key(DramJob("hevc1", 2000, include_stm=False))


def test_cache_key_distinguishes_job_kinds():
    # Same field values, different dataclass -> different key space.
    assert cache_key(SpecJob("mcf", 2000)) != cache_key(SizeJob("mcf", 2000))


def test_source_edit_invalidates_keys(tmp_path):
    copy = tmp_path / "repro"
    shutil.copytree(PACKAGE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    assert store.source_digest(copy) == store.source_digest(PACKAGE)
    comparison = copy / "eval" / "comparison.py"
    comparison.write_text(comparison.read_text() + "# an edit\n")
    edited = store.source_digest(copy)
    assert edited != store.source_digest(PACKAGE)
    # A moved file changes the digest even with every byte kept.
    comparison.rename(copy / "eval" / "comparison2.py")
    assert store.source_digest(copy) not in (edited, store.source_digest(PACKAGE))


def _run_fig8(package_root, out, *flags):
    env = dict(os.environ, PYTHONPATH=str(package_root))
    command = [
        sys.executable, "-m", "repro.eval", "quick", "fig8", "--requests", "500",
        "--json-out", str(out), *flags,
    ]
    result = subprocess.run(
        command, env=env, cwd=package_root, capture_output=True, text=True, check=True
    )
    return result.stdout


def test_edited_package_misses_instead_of_serving_stale_results(tmp_path):
    """Regression: keys once salted with ``repro.__version__`` only, so
    an edit that changes a figure was served the pre-edit payload."""
    src = tmp_path / "src"
    shutil.copytree(PACKAGE, src / "repro", ignore=shutil.ignore_patterns("__pycache__"))
    cache_dir = str(tmp_path / "cache")

    first = _run_fig8(src, tmp_path / "a.json", "--cache-dir", cache_dir)
    assert "cache: 0 hits, 1 misses" in first

    comparison = src / "repro" / "eval" / "comparison.py"
    text = comparison.read_text()
    assert "mcc_trace = synthesize(mcc_profile, seed=seed + 1)" in text
    comparison.write_text(text.replace(
        "mcc_trace = synthesize(mcc_profile, seed=seed + 1)",
        "mcc_trace = synthesize(mcc_profile, seed=seed + 2)",
    ))

    second = _run_fig8(src, tmp_path / "b.json", "--cache-dir", cache_dir)
    assert "cache: 0 hits, 1 misses" in second
    _run_fig8(src, tmp_path / "fresh.json", "--no-cache")
    assert (tmp_path / "b.json").read_bytes() == (tmp_path / "fresh.json").read_bytes()
    assert (tmp_path / "b.json").read_bytes() != (tmp_path / "a.json").read_bytes()


def test_non_dataclass_jobs_rejected():
    with pytest.raises(TypeError, match="dataclass"):
        cache_key({"name": "hevc1"})


def test_cache_key_separates_backends(monkeypatch):
    # A no-numpy host's payloads never collide with a numpy host's, even
    # though both profile-build paths are bit-identical by contract.
    if numpy_or_none() is None:
        pytest.skip("needs numpy to compare the two paths")
    job = DramJob("hevc1", 2000)
    columnar_key = cache_key(job)
    monkeypatch.setenv("MOCKTAILS_NO_NUMPY", "1")
    scalar_key = cache_key(job)
    assert scalar_key != columnar_key
    monkeypatch.delenv("MOCKTAILS_NO_NUMPY")
    assert cache_key(job) == columnar_key  # live read, not cached


def test_cache_key_uses_resolved_backend():
    # The "backend" field holds the path numpy availability selects:
    # "columnar" on numpy hosts, which keeps their warm caches valid.
    job = DramJob("hevc1", 2000)
    canonical = json.dumps(
        {
            "source": store.source_digest(PACKAGE),
            "backend": "columnar" if numpy_or_none() is not None else "scalar",
            "kind": "DramJob",
            "fields": dataclasses.asdict(job),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    assert cache_key(job) == hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Fetch/store round trips
# ---------------------------------------------------------------------------


def test_fetch_miss_then_hit(memo):
    job = SizeJob("mcf", 1000)
    assert memo.fetch(job) is None
    memo.store(job, {"trace": 123, "dynamic": 45})
    assert memo.fetch(job) == {"trace": 123, "dynamic": 45}
    assert memo.hits == 1 and memo.misses == 1


def test_hit_miss_tally_survives_concurrent_fetches(memo):
    """Regression for conc-unguarded-shared-state on ``hits``/``misses``.

    ``fetch`` is called from every scheduler worker; the session tally
    now increments under ``_tally_lock``, so hammering one hot entry
    from many threads loses no updates.
    """
    import threading

    job = SizeJob("mcf", 1000)
    memo.store(job, {"trace": 1})
    per_thread, threads = 500, 8

    def hammer():
        for _ in range(per_thread):
            memo.fetch(job)

    workers = [threading.Thread(target=hammer) for _ in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    assert memo.hits == per_thread * threads
    assert memo.misses == 0


def test_survives_across_instances(tmp_path):
    job = SizeJob("mcf", 1000)
    ExperimentMemo(tmp_path / "cache").store(job, {"trace": 1})
    fresh = ExperimentMemo(tmp_path / "cache")
    assert fresh.fetch(job) == {"trace": 1}


def test_store_overwrite_updates_payload(memo):
    job = SizeJob("mcf", 1000)
    memo.store(job, {"v": 1})
    memo.store(job, {"v": 2})
    assert memo.fetch(job) == {"v": 2}


def test_distinct_jobs_do_not_collide(memo):
    memo.store(SizeJob("mcf", 1000), "a")
    memo.store(SizeJob("mcf", 2000), "b")
    assert memo.fetch(SizeJob("mcf", 1000)) == "a"
    assert memo.fetch(SizeJob("mcf", 2000)) == "b"


# ---------------------------------------------------------------------------
# Corruption: detected, evicted, recomputed — never returned
# ---------------------------------------------------------------------------


def _entry_paths(memo):
    return [path for path in memo.root.rglob("*") if path.is_file()]


def test_entry_layout_is_digest_then_pickle(memo):
    job = SizeJob("mcf", 1000)
    memo.store(job, {"trace": 99})
    key = cache_key(job)
    (entry,) = _entry_paths(memo)
    assert entry == memo.root / key[:2] / key
    data = entry.read_bytes()
    assert data[:32] == hashlib.sha256(data[32:]).digest()
    assert pickle.loads(data[32:]) == {"trace": 99}


def test_corrupt_blob_is_a_miss_and_is_evicted(memo):
    job = SizeJob("mcf", 1000)
    memo.store(job, {"trace": 99})
    (entry,) = _entry_paths(memo)
    entry.write_bytes(b"\x00garbage\x00")

    assert memo.fetch(job) is None  # never returns garbage
    assert memo.corrupt == 1 and memo.misses == 1
    assert _entry_paths(memo) == []  # evicted

    # The natural recovery: recompute and store again.
    memo.store(job, {"trace": 99})
    assert memo.fetch(job) == {"trace": 99}


def test_valid_hash_but_bad_pickle_is_a_miss(memo):
    job = SizeJob("mcf", 1000)
    memo.store(job, "payload")
    (entry,) = _entry_paths(memo)
    blob = b"not a pickle at all"
    entry.write_bytes(hashlib.sha256(blob).digest() + blob)

    assert memo.fetch(job) is None
    assert memo.corrupt == 1
    assert not entry.exists()


def test_clear_removes_everything(memo):
    memo.store(SizeJob("mcf", 1000), "a")
    memo.store(SizeJob("mcf", 2000), "b")
    assert memo.clear() == 2
    assert memo.stats()["entries"] == 0
    assert memo.stats()["bytes"] == 0


def test_clear_removes_the_old_layout_and_nothing_else(memo):
    memo.store(SizeJob("mcf", 1000), "a")
    for name in ("keys", "objects", "locks"):
        nested = memo.root / name / "ab"
        nested.mkdir(parents=True)
        (nested / "entry").write_bytes(b"old")
    (memo.root / "notes.txt").write_text("keep me")
    assert memo.clear() == 1
    assert not any((memo.root / name).exists() for name in ("keys", "objects", "locks"))
    assert (memo.root / "notes.txt").read_text() == "keep me"
    assert memo.stats()["entries"] == 0


# ---------------------------------------------------------------------------
# Active-memo plumbing
# ---------------------------------------------------------------------------


def test_configure_and_deactivate(tmp_path):
    assert store.active_memo() is None or store.deactivate() is None
    memo = store.configure(tmp_path / "cache")
    try:
        assert store.active_memo() is memo
        assert memo.root == tmp_path / "cache"
    finally:
        store.deactivate()
    assert store.active_memo() is None


def test_default_cache_dir_honours_env(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "custom"))
    assert store.default_cache_dir() == tmp_path / "custom"
    monkeypatch.delenv("REPRO_CACHE_DIR")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert store.default_cache_dir() == tmp_path / "xdg" / "repro"


def test_obs_counters_mirror_memo_traffic(memo):
    from repro import obs

    obs.enable()
    try:
        job = SizeJob("mcf", 1000)
        memo.fetch(job)  # miss
        memo.store(job, "payload")
        memo.fetch(job)  # hit
        counters = obs.active().snapshot()["counters"]
    finally:
        obs.disable()

    assert counters["store.memo.misses"] == 1
    assert counters["store.memo.hits"] == 1
    assert counters["store.memo.stores"] == 1
