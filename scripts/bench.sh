#!/bin/sh
# Run the perf-regression bench and diff BENCH_perf.json against the
# previous snapshot. A run manifest (host info, phase wall times, all
# observability counters) is recorded alongside it as
# BENCH_manifest.json.
#
# Usage: scripts/bench.sh [--jobs N] [extra pytest args...]
set -eu

repo="$(cd "$(dirname "$0")/.." && pwd)"
snapshot="$repo/BENCH_perf.json"
previous="$repo/BENCH_perf.prev.json"

if [ -f "$snapshot" ]; then
    cp "$snapshot" "$previous"
fi

cd "$repo"
PYTHONPATH=src python -m pytest benchmarks/test_perf.py -m perf -q -p no:cacheprovider "$@"

if [ -f "$previous" ]; then
    python scripts/bench_diff.py "$previous" "$snapshot"
else
    echo "no previous BENCH_perf.json - baseline recorded"
fi

# Cold-vs-warm memoization summary (repro.store): the snapshot records
# a fig6 run served entirely from the content-addressed store.
python - "$snapshot" <<'EOF'
import json, sys
data = json.load(open(sys.argv[1]))
speedup = data.get("speedup_cold_over_warm")
if speedup:
    print(f"warm-cache fig6: {speedup:.1f}x faster than cold serial "
          f"({data.get('warm_cache_hits')} store hits, "
          f"identical={data.get('warm_identical')})")
EOF

# Columnar backend summary: vectorized profile build and batched cache
# sweep vs their scalar twins (bit-identical by construction).
python - "$snapshot" <<'EOF'
import json, sys
data = json.load(open(sys.argv[1]))
build = data.get("speedup_profile_build")
sweep = data.get("speedup_cache_sweep")
if build and sweep:
    print(f"columnar backend: profile build {build:.1f}x, "
          f"cache sweep {sweep:.1f}x over scalar "
          f"(identical={data.get('columnar_identical')})")
EOF

if [ -f "$repo/BENCH_manifest.json" ]; then
    echo "run manifest: BENCH_manifest.json"
fi
