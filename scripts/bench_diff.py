"""Diff two BENCH_perf.json snapshots: per-timing deltas, worst first.

Usage: python scripts/bench_diff.py OLD.json NEW.json
"""

import json
import sys


def _load_bench(path):
    """Load one BENCH json; exits with a clear message when unusable."""
    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as error:
        print(f"error: cannot read {path}: {error.strerror or error}", file=sys.stderr)
        raise SystemExit(2)
    except json.JSONDecodeError as error:
        print(f"error: {path} is not valid JSON (line {error.lineno}: {error.msg}); "
              "re-run scripts/bench.sh to regenerate it", file=sys.stderr)
        raise SystemExit(2)
    if not isinstance(data, dict) or not isinstance(data.get("timings_seconds"), dict):
        print(f"error: {path} is not a BENCH snapshot "
              "(expected an object with a 'timings_seconds' mapping)", file=sys.stderr)
        raise SystemExit(2)
    _check_schema4_fields(path, data)
    _check_schema5_fields(path, data)
    _check_schema6_fields(path, data)
    _check_schema7_fields(path, data)
    _check_schema8_fields(path, data)
    _check_schema9_fields(path, data)
    return data


#: Snapshot fields introduced with the columnar backend (schema 4): the
#: scalar/columnar micro-bench timings and their speedup summaries. A
#: schema-4 snapshot missing any of them is a broken bench run, not a
#: diffable measurement.
_SCHEMA4_TIMINGS = (
    "profile_build_scalar",
    "profile_build_columnar",
    "cache_sweep_scalar",
    "cache_sweep_columnar",
)
_SCHEMA4_FIELDS = ("speedup_profile_build", "speedup_cache_sweep")


def _check_schema4_fields(path, data):
    """Fail loudly when a schema>=4 snapshot lacks the columnar entries."""
    schema = data.get("schema")
    if not isinstance(schema, int) or schema < 4:
        return  # pre-columnar snapshot: nothing to require
    timings = data["timings_seconds"]
    missing = [key for key in _SCHEMA4_TIMINGS if key not in timings]
    missing += [f"top-level '{key}'" for key in _SCHEMA4_FIELDS if key not in data]
    if missing:
        print(f"error: {path} (schema {schema}) is missing required columnar "
              f"bench entries: {', '.join(missing)}; "
              "re-run scripts/bench.sh to regenerate it", file=sys.stderr)
        raise SystemExit(2)


#: Snapshot fields introduced with the streaming build (schema 5): the
#: streamed micro-bench timing, its ratio over the in-memory columnar
#: build, and the tracemalloc peak allocation sizes of both builds.
_SCHEMA5_TIMINGS = ("profile_build_streamed",)
_SCHEMA5_FIELDS = (
    "streaming_identical",
    "streaming_over_columnar",
    "peak_profile_memory_bytes",
    "peak_profile_memory_bytes_inmemory",
)


def _check_schema5_fields(path, data):
    """Fail loudly when a schema>=5 snapshot lacks the streaming entries."""
    schema = data.get("schema")
    if not isinstance(schema, int) or schema < 5:
        return  # pre-streaming snapshot: nothing to require
    timings = data["timings_seconds"]
    missing = [key for key in _SCHEMA5_TIMINGS if key not in timings]
    missing += [f"top-level '{key}'" for key in _SCHEMA5_FIELDS if key not in data]
    if missing:
        print(f"error: {path} (schema {schema}) is missing required streaming "
              f"bench entries: {', '.join(missing)}; "
              "re-run scripts/bench.sh to regenerate it", file=sys.stderr)
        raise SystemExit(2)


#: Snapshot fields introduced with statistical sampling (schema 6): the
#: K-representative profile-build timing, its speedup over the full
#: columnar build, and the estimator's measured-vs-declared error.
_SCHEMA6_TIMINGS = ("sampled_profile_build",)
_SCHEMA6_FIELDS = (
    "speedup_sampled_profile_build",
    "sampled_geomean_error_percent",
    "sampled_error_bound_percent",
    "sampled_within_bound",
)


def _check_schema6_fields(path, data):
    """Fail loudly when a schema>=6 snapshot lacks the sampling entries."""
    schema = data.get("schema")
    if not isinstance(schema, int) or schema < 6:
        return  # pre-sampling snapshot: nothing to require
    timings = data["timings_seconds"]
    missing = [key for key in _SCHEMA6_TIMINGS if key not in timings]
    missing += [f"top-level '{key}'" for key in _SCHEMA6_FIELDS if key not in data]
    if missing:
        print(f"error: {path} (schema {schema}) is missing required sampling "
              f"bench entries: {', '.join(missing)}; "
              "re-run scripts/bench.sh to regenerate it", file=sys.stderr)
        raise SystemExit(2)


#: Snapshot fields introduced with the job-queue service (schema 7):
#: the client-storm timings (cold store, then the same storm warm) and
#: the exactly-once/dedupe accounting of the engine underneath it.
_SCHEMA7_TIMINGS = ("service_storm_cold", "service_storm_warm")
_SCHEMA7_FIELDS = (
    "storm_clients",
    "storm_unique_jobs",
    "storm_unique_computes",
    "storm_exactly_once",
    "storm_dedupe_hit_rate",
    "storm_cold_jobs_per_sec",
    "storm_warm_jobs_per_sec",
)


#: Schema 11 retires the job-queue service and the lint result cache:
#: their schema 7 and schema 8 fields are gone on purpose.
_SERVICE_RETIRED_SCHEMA = 11


def _check_schema7_fields(path, data):
    """Fail loudly when a schema 7-10 snapshot lacks the service entries."""
    schema = data.get("schema")
    if not isinstance(schema, int) or not 7 <= schema < _SERVICE_RETIRED_SCHEMA:
        return  # pre-service or post-service snapshot: nothing to require
    timings = data["timings_seconds"]
    missing = [key for key in _SCHEMA7_TIMINGS if key not in timings]
    missing += [f"top-level '{key}'" for key in _SCHEMA7_FIELDS if key not in data]
    if missing:
        print(f"error: {path} (schema {schema}) is missing required service "
              f"storm entries: {', '.join(missing)}; "
              "re-run scripts/bench.sh to regenerate it", file=sys.stderr)
        raise SystemExit(2)


#: Snapshot fields introduced with the two-phase lint engine (schema 8):
#: full-repo lint wall time cold vs warm through the incremental
#: per-file cache, and the warm run's hit count (must equal the file
#: count — a warm lint re-parses nothing).
_SCHEMA8_TIMINGS = ("lint_full", "lint_warm")
_SCHEMA8_FIELDS = (
    "lint_files",
    "lint_full_wall_seconds",
    "lint_warm_wall_seconds",
    "lint_cache_hits_warm",
)


def _check_schema8_fields(path, data):
    """Fail loudly when a schema 8-10 snapshot lacks the lint entries."""
    schema = data.get("schema")
    if not isinstance(schema, int) or not 8 <= schema < _SERVICE_RETIRED_SCHEMA:
        return  # pre- or post-lint-bench snapshot: nothing to require
    timings = data["timings_seconds"]
    missing = [key for key in _SCHEMA8_TIMINGS if key not in timings]
    missing += [f"top-level '{key}'" for key in _SCHEMA8_FIELDS if key not in data]
    if missing:
        print(f"error: {path} (schema {schema}) is missing required lint "
              f"bench entries: {', '.join(missing)}; "
              "re-run scripts/bench.sh to regenerate it", file=sys.stderr)
        raise SystemExit(2)


#: Snapshot fields introduced with batched memory-system replay
#: (schema 9): the scalar-vs-batched DRAM replay micro timings, their
#: speedup on bit-identical stats, and the serial figure wall time
#: attributed to synthesis/crossbar/DRAM phases.
_SCHEMA9_TIMINGS = ("dram_replay_scalar", "dram_replay_batched")
_SCHEMA9_FIELDS = (
    "dram_replay_identical",
    "speedup_dram_replay",
    "figure_phase_seconds",
)
#: Schema 10 leaves one memory-system engine: the scalar-vs-batched
#: comparison fields are gone on purpose.
_SCHEMA10_DROPPED = ("dram_replay_scalar", "dram_replay_identical", "speedup_dram_replay")


def _check_schema9_fields(path, data):
    """Fail loudly when a schema>=9 snapshot lacks the replay entries."""
    schema = data.get("schema")
    if not isinstance(schema, int) or schema < 9:
        return  # pre-batched-replay snapshot: nothing to require
    dropped = _SCHEMA10_DROPPED if schema >= 10 else ()
    timings = data["timings_seconds"]
    missing = [key for key in _SCHEMA9_TIMINGS if key not in timings and key not in dropped]
    missing += [
        f"top-level '{key}'"
        for key in _SCHEMA9_FIELDS
        if key not in data and key not in dropped
    ]
    if missing:
        print(f"error: {path} (schema {schema}) is missing required batched "
              f"replay bench entries: {', '.join(missing)}; "
              "re-run scripts/bench.sh to regenerate it", file=sys.stderr)
        raise SystemExit(2)


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    old = _load_bench(argv[1])
    new = _load_bench(argv[2])

    if old.get("scale") != new.get("scale"):
        print(f"note: scales differ ({old.get('scale')} vs {new.get('scale')}); "
              "deltas are not comparable")

    old_times = old.get("timings_seconds", {})
    new_times = new.get("timings_seconds", {})
    rows = []
    for key in sorted(set(old_times) | set(new_times)):
        before, after = old_times.get(key), new_times.get(key)
        if before is None or after is None or before == 0:
            rows.append((float("-inf"), key, before, after, None))
        else:
            rows.append((after / before - 1.0, key, before, after, after / before - 1.0))
    rows.sort(reverse=True)

    if not rows:
        print("no timings recorded in either snapshot; nothing to diff")
        return 0
    width = max(len(key) for _, key, *_ in rows)
    print(f"{'timing':>{width}}  {'before':>8}  {'after':>8}  {'delta':>8}")
    for _, key, before, after, delta in rows:
        before_s = "-" if before is None else f"{before:8.3f}"
        after_s = "-" if after is None else f"{after:8.3f}"
        delta_s = "new/gone" if delta is None else f"{delta:+7.1%}"
        print(f"{key:>{width}}  {before_s}  {after_s}  {delta_s}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
