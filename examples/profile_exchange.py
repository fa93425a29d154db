#!/usr/bin/env python
"""The industry/academia exchange: ship a profile, not a trace.

Demonstrates the paper's Fig. 1 flow end to end, including:
  * on-disk sizes (profiles are the artifact that travels),
  * what the profile does and does not reveal (obfuscation),
  * coupled Option B synthesis with simulator backpressure feedback.

Run:  python examples/profile_exchange.py
"""

import os

import json
import tempfile
from pathlib import Path

from repro import (
    FeedbackSynthesizer,
    build_profile,
    load_profile,
    save_profile,
    workload_trace,
)
from repro.core.serialization import profile_to_dict
from repro.core.tracefile import save_trace
from repro.dram.config import MemoryConfig
from repro.sim.driver import simulate_profile

NUM_REQUESTS = int(os.environ.get("EXAMPLE_REQUESTS", "15000"))


def industry_side(workdir: Path) -> Path:
    """Collect a trace, profile it, ship the profile."""
    trace = workload_trace("manhattan", num_requests=NUM_REQUESTS)
    trace_path = workdir / "manhattan.mtr.gz"
    trace_bytes = save_trace(trace, trace_path)

    profile = build_profile(trace)  # note: no workload name recorded
    profile_path = workdir / "mystery-gpu.mprof.gz"
    profile_bytes = save_profile(profile, profile_path)

    print(f"trace on disk:   {trace_bytes:10,} bytes  (stays in-house)")
    print(f"profile on disk: {profile_bytes:10,} bytes  (shipped)")

    # What leaks? Leaf metadata and Markov transition counts — not the
    # request sequence. Show a sample leaf verbatim:
    sample = profile_to_dict(profile)["leaves"][0]
    print("\nfirst leaf of the shipped profile:")
    print(json.dumps(sample, indent=1)[:400], "...")
    return profile_path


def academia_side(profile_path: Path) -> None:
    """Load the profile and run a coupled (Option B) simulation."""
    profile = load_profile(profile_path)
    print(f"\nloaded profile: {len(profile):,} leaves, "
          f"{profile.total_requests:,} requests, hierarchy {profile.hierarchy}")

    # Option B: synthesis reacts to backpressure from a congested
    # single-channel memory system.
    congested = MemoryConfig(num_channels=1, read_queue_size=16)
    stats = simulate_profile(profile, congested, seed=7)
    print(f"coupled simulation serviced {stats.latency_count:,} requests; "
          f"accumulated backpressure delay {stats.backpressure_delay:,} cycles")
    print(f"avg access latency under congestion: {stats.avg_access_latency:,.0f} cycles")

    # The same profile, pulled manually one request at a time:
    synthesizer = FeedbackSynthesizer(profile, seed=7)
    first = synthesizer.next_request()
    synthesizer.report_backpressure(500)
    second = synthesizer.next_request()
    print(f"\nmanual pull: first request at t={first.timestamp:,}; after "
          f"reporting 500 cycles of backpressure the next is at "
          f"t={second.timestamp:,}")


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        profile_path = industry_side(workdir)
        academia_side(profile_path)


if __name__ == "__main__":
    main()
