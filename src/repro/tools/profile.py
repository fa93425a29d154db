"""Profile tool: build, inspect and replay statistical profiles.

Examples::

    python -m repro.tools.profile create hevc1.mtr.gz hevc1.mprof.gz \\
        --interval 500000 --spatial dynamic --anonymous
    python -m repro.tools.profile info hevc1.mprof.gz
    python -m repro.tools.profile synthesize hevc1.mprof.gz clone.mtr.gz --seed 7
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ..baselines.stm import stm_leaf_factory
from ..core.hierarchy import two_level_rs, two_level_ts
from ..core.inspect import format_summary, summarize_profile
from ..core.leaf import LeafModel
from ..core.profiler import build_profile
from ..core.serialization import load_profile, save_profile
from ..core.synthesis import synthesize
from ..core.tracefile import load_trace, save_trace
from . import positive_int, run_command


def _hierarchy(args: argparse.Namespace):
    if args.temporal == "cycle_count":
        return two_level_ts(args.interval, spatial=args.spatial, block_size=args.block_size)
    return two_level_rs(args.interval, spatial=args.spatial, block_size=args.block_size)


def cmd_create(args: argparse.Namespace) -> int:
    trace = load_trace(args.trace)
    factory = stm_leaf_factory if args.leaf_model == "stm" else LeafModel.fit
    name = "" if args.anonymous else Path(args.trace).stem
    profile = build_profile(trace, _hierarchy(args), leaf_factory=factory, name=name)
    size = save_profile(profile, args.output)
    print(
        f"profiled {len(trace):,} requests into {len(profile):,} leaves "
        f"-> {args.output} ({size:,} bytes)"
    )
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    profile = load_profile(args.profile)
    print(format_summary(summarize_profile(profile)))
    return 0


def cmd_synthesize(args: argparse.Namespace) -> int:
    profile = load_profile(args.profile)
    trace = synthesize(profile, seed=args.seed, strict=not args.no_strict)
    size = save_trace(trace, args.output)
    print(f"synthesized {len(trace):,} requests -> {args.output} ({size:,} bytes)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.profile",
        description="Build, inspect and replay Mocktails profiles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    create = sub.add_parser("create", help="profile a trace")
    create.add_argument("trace")
    create.add_argument("output")
    create.add_argument("--temporal", choices=("cycle_count", "request_count"),
                        default="cycle_count")
    create.add_argument("--interval", type=positive_int, default=500_000)
    create.add_argument("--spatial", choices=("dynamic", "fixed"), default="dynamic")
    create.add_argument("--block-size", type=positive_int, default=4096)
    create.add_argument("--leaf-model", choices=("mcc", "stm"), default="mcc")
    create.add_argument("--anonymous", action="store_true",
                        help="do not record the workload name in the profile")
    create.set_defaults(func=cmd_create)

    info = sub.add_parser("info", help="summarize a profile")
    info.add_argument("profile")
    info.set_defaults(func=cmd_info)

    synthesize_cmd = sub.add_parser("synthesize", help="profile -> synthetic trace")
    synthesize_cmd.add_argument("profile")
    synthesize_cmd.add_argument("output")
    synthesize_cmd.add_argument("--seed", type=int, default=0)
    synthesize_cmd.add_argument("--no-strict", action="store_true",
                                help="disable strict convergence (sampled mode)")
    synthesize_cmd.set_defaults(func=cmd_synthesize)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return run_command(parser.prog, args.func, args)


if __name__ == "__main__":
    sys.exit(main())
