"""Trace tool: generate, inspect and convert trace files.

Examples::

    python -m repro.tools.trace generate hevc1 hevc1.mtr.gz --requests 50000
    python -m repro.tools.trace info hevc1.mtr.gz
    python -m repro.tools.trace convert hevc1.mtr.gz hevc1.csv.gz
"""

from __future__ import annotations

import argparse
import sys

from ..core.tracefile import load_trace, save_trace
from ..workloads.registry import available_workloads, workload_trace
from . import positive_int, run_command


def cmd_generate(args: argparse.Namespace) -> int:
    if args.workload not in available_workloads():
        print(f"unknown workload {args.workload!r}; use 'list'", file=sys.stderr)
        return 1
    trace = workload_trace(args.workload, num_requests=args.requests, seed=args.seed)
    size = save_trace(trace, args.output)
    print(f"wrote {len(trace):,} requests to {args.output} ({size:,} bytes)")
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    trace = load_trace(args.trace)
    if not len(trace):
        print("empty trace")
        return 0
    addresses = trace.addresses.tolist()
    end = max(a + s for a, s in zip(addresses, trace.sizes.tolist()))
    print(f"requests:    {len(trace):,}")
    print(f"reads:       {trace.read_count():,}")
    print(f"writes:      {trace.write_count():,}")
    print(f"bytes:       {trace.total_bytes():,}")
    print(f"duration:    {trace.duration:,} cycles")
    print(f"addresses:   0x{min(addresses):x} .. 0x{end:x}")
    print(f"sorted:      {trace.is_sorted()}")
    return 0


def cmd_characterize(args: argparse.Namespace) -> int:
    from ..workloads.characterize import characterize, format_character

    print(format_character(characterize(load_trace(args.trace))))
    return 0


def cmd_convert(args: argparse.Namespace) -> int:
    trace = load_trace(args.input)
    size = save_trace(trace, args.output)
    print(f"converted {len(trace):,} requests -> {args.output} ({size:,} bytes)")
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
        "convert", help="convert between the .csv and .mtr formats, by suffix"
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
