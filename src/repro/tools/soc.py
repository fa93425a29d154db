"""SoC tool: run a multi-device simulation from the command line.

Examples::

    python -m repro.tools.soc run --device cpu=crypto1 --device gpu=trex1 \\
        --requests 8000 --seed 1
    python -m repro.tools.soc run --device dpu=fbc-linear1 --chargecache \\
        --channels 2

Devices may also be profile files: ``--device ip=path/to/profile.mprof.gz``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ..core.profiler import build_profile
from ..core.serialization import load_profile
from ..dram.chargecache import ChargeCacheConfig
from ..dram.config import MemoryConfig
from ..eval.reporting import format_table
from ..sim.multi_device import run_soc
from ..workloads.registry import available_workloads, workload_trace
from . import positive_int, run_command


def _parse_device(spec: str):
    if "=" not in spec:
        raise argparse.ArgumentTypeError(
            f"device spec must be name=workload-or-profile, got {spec!r}"
        )
    name, source = spec.split("=", 1)
    if not name:
        raise argparse.ArgumentTypeError("device name must be non-empty")
    return name, source


def _resolve_source(source: str, requests: int, seed: int):
    if source in available_workloads():
        trace = workload_trace(source, num_requests=requests, seed=seed)
        return build_profile(trace, name=source)
    path = Path(source)
    if path.exists():
        return load_profile(path)
    raise ValueError(
        f"{source!r} is neither a registered workload nor a profile file"
    )


def cmd_run(args: argparse.Namespace) -> int:
    if not args.device:
        print("at least one --device is required", file=sys.stderr)
        return 1
    try:
        devices = {
            name: _resolve_source(source, args.requests, args.seed + index)
            for index, (name, source) in enumerate(args.device)
        }
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 1

    config = MemoryConfig(
        num_channels=args.channels,
        charge_cache=ChargeCacheConfig() if args.chargecache else None,
    )
    result = run_soc(devices, config=config, seed=args.seed)

    shares = result.bandwidth_share()
    rows = [
        [
            name,
            stats.requests,
            stats.reads,
            stats.writes,
            stats.avg_access_latency,
            shares[name] * 100,
        ]
        for name, stats in sorted(result.devices.items())
    ]
    print(format_table(
        ["device", "requests", "reads", "writes", "avg latency", "bw %"], rows
    ))
    memory = result.memory
    print(
        f"\nmemory: {memory.read_bursts:,} rd bursts ({memory.read_row_hits:,} row hits), "
        f"{memory.write_bursts:,} wr bursts ({memory.write_row_hits:,} row hits), "
        f"avg latency {memory.avg_access_latency:,.1f}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.soc",
        description="Run a multi-device SoC simulation from profiles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run a SoC simulation")
    run.add_argument(
        "--device", action="append", type=_parse_device, default=[],
        metavar="NAME=SOURCE",
        help="a device: NAME=<workload name or profile path>; repeatable",
    )
    run.add_argument("--requests", type=positive_int, default=8_000,
                     help="requests per device for workload sources")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--channels", type=positive_int, default=4)
    run.add_argument("--chargecache", action="store_true",
                     help="enable the ChargeCache extension")
    run.set_defaults(func=cmd_run)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return run_command(parser.prog, args.func, args)


if __name__ == "__main__":
    sys.exit(main())
