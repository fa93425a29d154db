"""Prove the streaming profiler's memory bound under a hard RLIMIT_AS cap.

Generates a multi-million-request trace to disk block by block, then
runs two capped subprocesses over the same file:

* ``--worker stream``   — ``build_profile_streaming(iter_blocks(path))``
  must *succeed* under the cap (peak memory is O(block)), and
* ``--worker inmemory`` — ``Trace.load_binary`` + single-pass
  ``build_profile`` must *die with MemoryError* under the same cap
  (peak memory is O(trace)).

If the in-memory leg survives, the cap is too generous to prove
anything and the check fails loudly; if the streaming leg dies, the
O(block) bound is broken. Exit status 0 means both expectations held.

Usage: python scripts/stream_memcheck.py [--requests N] [--cap-mb MB]
"""

from __future__ import annotations

import argparse
import resource
import subprocess
import sys
from pathlib import Path

#: Exit code a worker uses to report "MemoryError, as expected".
MEMORY_ERROR_EXIT = 3


def _generate(path: Path, requests: int, block_requests: int) -> None:
    from repro.stream import TraceBlockWriter
    from repro.workloads import make_generator

    generator = make_generator("hevc1", seed=0)
    with TraceBlockWriter(path, expected_requests=requests) as writer:
        for block in generator.generate_blocks(requests, block_requests):
            writer.write_block(block)
    print(f"generated {writer.requests_written:,} requests "
          f"-> {path} ({writer.bytes_written:,} bytes)")


def _config():
    # A hierarchy whose *profile* stays small (one leaf per 100k
    # requests, sufficient-stats streaming mode): the cap must measure
    # the pipeline's working set, not the size of the retained model —
    # a leaf-dense hierarchy holds O(trace) memory in the result itself
    # on both paths, proving nothing about streaming.
    from repro.core.hierarchy import HierarchyConfig, TemporalLayer

    return HierarchyConfig([TemporalLayer("request_count", 100_000)])


def _worker(mode: str, path: Path, cap_mb: int, block_requests: int) -> int:
    cap = cap_mb << 20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    try:
        if mode == "stream":
            from repro.stream import build_profile_streaming, iter_blocks

            profile = build_profile_streaming(
                iter_blocks(path, block_requests), _config()
            )
        else:
            from repro.core.profiler import build_profile
            from repro.core.trace import Trace

            profile = build_profile(Trace.load_binary(path), _config())
    except MemoryError:
        print(f"worker {mode}: MemoryError under {cap_mb} MiB cap", flush=True)
        return MEMORY_ERROR_EXIT
    print(f"worker {mode}: built {len(profile.leaves)} leaves "
          f"under {cap_mb} MiB cap", flush=True)
    return 0


def _run_capped(mode: str, path: Path, cap_mb: int, block_requests: int) -> int:
    command = [
        sys.executable, __file__, "--worker", mode, "--trace", str(path),
        "--cap-mb", str(cap_mb), "--block-requests", str(block_requests),
    ]
    return subprocess.run(command).returncode


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=2_000_000)
    parser.add_argument("--cap-mb", type=int, default=512)
    parser.add_argument("--block-requests", type=int, default=8192)
    parser.add_argument("--trace", type=Path, default=None,
                        help="reuse an existing .mtr instead of generating")
    parser.add_argument("--worker", choices=["stream", "inmemory"],
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.worker:
        return _worker(args.worker, args.trace, args.cap_mb, args.block_requests)

    import tempfile

    with tempfile.TemporaryDirectory(prefix="stream-memcheck-") as tmp:
        path = args.trace
        if path is None:
            path = Path(tmp) / "memcheck.mtr"
            _generate(path, args.requests, args.block_requests)

        failures = 0
        status = _run_capped("stream", path, args.cap_mb, args.block_requests)
        if status != 0:
            print(f"FAIL: streaming build did not fit the {args.cap_mb} MiB cap "
                  f"(exit {status}); the O(block) bound is broken", file=sys.stderr)
            failures += 1
        else:
            print(f"PASS: streaming build fits the {args.cap_mb} MiB cap")

        status = _run_capped("inmemory", path, args.cap_mb, args.block_requests)
        if status != MEMORY_ERROR_EXIT:
            print(f"FAIL: in-memory build survived the {args.cap_mb} MiB cap "
                  f"(exit {status}); the cap proves nothing — lower it or "
                  "raise --requests", file=sys.stderr)
            failures += 1
        else:
            print("PASS: in-memory build exceeds the cap, as expected")
        return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
