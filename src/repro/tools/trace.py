"""Trace tool: generate, inspect and convert trace files.

Examples::

    python -m repro.tools.trace generate hevc1 hevc1.mtr.gz --requests 50000
    python -m repro.tools.trace info hevc1.mtr.gz
    python -m repro.tools.trace convert hevc1.mtr.gz hevc1.csv.gz
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ..core.trace import Trace
from ..workloads.registry import available_workloads, workload_trace
from . import positive_int, run_command


_CSV_SUFFIXES = (".csv", ".csv.gz")
_BINARY_SUFFIXES = (".mtr", ".mtr.gz")


def _unknown_suffix(path: Path) -> ValueError:
    known = ", ".join(_CSV_SUFFIXES + _BINARY_SUFFIXES)
    return ValueError(
        f"{path}: unrecognized trace suffix; expected one of: {known}"
    )


def load_any(path: Path) -> Trace:
    """Load a trace in either on-disk format, keyed by file suffix."""
    name = str(path)
    if name.endswith(_CSV_SUFFIXES):
        return Trace.load_csv(path)
    if name.endswith(_BINARY_SUFFIXES):
        return Trace.load_binary(path)
    raise _unknown_suffix(path)


def save_any(trace: Trace, path: Path) -> int:
    """Save in the format named by the suffix; returns bytes written."""
    name = str(path)
    if name.endswith(_CSV_SUFFIXES):
        return trace.save_csv(path)
    if name.endswith(_BINARY_SUFFIXES):
        return trace.save_binary(path)
    raise _unknown_suffix(path)


def cmd_generate(args: argparse.Namespace) -> int:
    if args.workload not in available_workloads():
        print(f"unknown workload {args.workload!r}; use 'list'", file=sys.stderr)
        return 1
    trace = workload_trace(args.workload, num_requests=args.requests, seed=args.seed)
    size = save_any(trace, Path(args.output))
    print(f"wrote {len(trace):,} requests to {args.output} ({size:,} bytes)")
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    # One streamed pass (repro.stream): every statistic below is a
    # per-block reduction, so arbitrarily large traces fit in O(block).
    from ..stream import iter_blocks

    total = writes = total_bytes = 0
    start_time = end_time = None
    addr_lo = addr_hi = None
    is_sorted = True
    previous_ts = None
    for block in iter_blocks(Path(args.trace)):
        timestamps = block.timestamps.tolist()
        addresses = block.addresses.tolist()
        sizes = block.sizes.tolist()
        total += len(timestamps)
        writes += sum(block.ops.tolist())
        total_bytes += sum(sizes)
        lo, hi = min(timestamps), max(timestamps)
        start_time = lo if start_time is None else min(start_time, lo)
        end_time = hi if end_time is None else max(end_time, hi)
        block_lo = min(addresses)
        block_hi = max(a + s for a, s in zip(addresses, sizes))
        addr_lo = block_lo if addr_lo is None else min(addr_lo, block_lo)
        addr_hi = block_hi if addr_hi is None else max(addr_hi, block_hi)
        if is_sorted:
            if previous_ts is not None and timestamps[0] < previous_ts:
                is_sorted = False
            else:
                is_sorted = all(
                    timestamps[i] <= timestamps[i + 1]
                    for i in range(len(timestamps) - 1)
                )
        previous_ts = timestamps[-1]
    if not total:
        print("empty trace")
        return 0
    print(f"requests:    {total:,}")
    print(f"reads:       {total - writes:,}")
    print(f"writes:      {writes:,}")
    print(f"bytes:       {total_bytes:,}")
    print(f"duration:    {end_time - start_time:,} cycles")
    print(f"addresses:   0x{addr_lo:x} .. 0x{addr_hi:x}")
    print(f"sorted:      {is_sorted}")
    return 0


def cmd_characterize(args: argparse.Namespace) -> int:
    from ..workloads.characterize import characterize, format_character

    trace = load_any(Path(args.trace))
    print(format_character(characterize(trace)))
    return 0


def cmd_convert(args: argparse.Namespace) -> int:
    # Block-by-block copy (repro.stream): output bytes are identical to
    # load-then-save, but peak memory stays O(block).
    from ..stream import TraceBlockWriter, iter_blocks

    with TraceBlockWriter(Path(args.output)) as writer:
        for block in iter_blocks(Path(args.input)):
            writer.write_block(block)
    print(
        f"converted {writer.requests_written:,} requests -> {args.output} "
        f"({writer.bytes_written:,} bytes)"
    )
    return 0


def cmd_list(args: argparse.Namespace) -> int:
    for name in available_workloads():
        print(name)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.trace",
        description="Generate, inspect and convert memory traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser("generate", help="generate a workload trace")
    generate.add_argument("workload")
    generate.add_argument("output")
    generate.add_argument("--requests", type=positive_int, default=100_000)
    generate.add_argument("--seed", type=int, default=0)
    generate.set_defaults(func=cmd_generate)

    info = sub.add_parser("info", help="print trace statistics")
    info.add_argument("trace")
    info.set_defaults(func=cmd_info)

    characterize = sub.add_parser(
        "characterize", help="print a Table II-style workload fingerprint"
    )
    characterize.add_argument("trace")
    characterize.set_defaults(func=cmd_characterize)

    convert = sub.add_parser(
        "convert", help="convert between .csv/.csv.gz and .mtr/.mtr.gz"
    )
    convert.add_argument("input")
    convert.add_argument("output")
    convert.set_defaults(func=cmd_convert)

    sub.add_parser("list", help="list available workloads").set_defaults(func=cmd_list)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return run_command(parser.prog, args.func, args)


if __name__ == "__main__":
    sys.exit(main())
