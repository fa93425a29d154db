"""Command-line experiment runner: ``python -m repro.eval``.

Examples::

    python -m repro.eval list
    python -m repro.eval run fig9 --requests 50000
    python -m repro.eval quick fig6 --metrics-out run.json
    python -m repro.eval all --requests 20000 --trace-events events.jsonl
    python -m repro.eval run fig6 --cache-dir /tmp/repro-cache
    python -m repro.eval cache stats

Cross-run memoization is **on by default** (under ``~/.cache/repro``;
see :mod:`repro.store`): deterministic simulation payloads computed by
one invocation are reused by every later one, so a warm ``run fig6`` is
bit-identical to a cold one but orders of magnitude faster. Opt out
with ``--no-cache``; manage the cache with the ``cache`` subcommand.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .. import obs, store
from . import experiments
from .reporting import format_table


def _print_fig2(records) -> None:
    rows = [[r["order"], r["offset"], r["size"], r["operation"]] for r in records[:40]]
    print(format_table(["order", "offset", "size", "op"], rows))


def _print_fig3(bins) -> None:
    print(format_table(["bin", "requests"], bins[:60]))


def _print_table1(data) -> None:
    rows = [
        [i, s if s is not None else "N/A", size]
        for i, (s, size) in enumerate(data["one_partition"])
    ]
    print(format_table(["#", "stride", "size"], rows))


def _print_error_figure(result, metrics) -> None:
    rows = []
    for device, data in result.items():
        row = [device]
        for metric in metrics:
            row.extend([data[metric]["mcc"], data[metric]["stm"]])
        rows.append(row)
    headers = ["device"]
    for metric in metrics:
        headers.extend([f"{metric} McC", f"{metric} STM"])
    print(format_table(headers, rows))


def _print_fig7(result) -> None:
    rows = [
        [
            device,
            data["read_queue"]["baseline"], data["read_queue"]["mcc"],
            data["read_queue"]["stm"],
            data["write_queue"]["baseline"], data["write_queue"]["mcc"],
            data["write_queue"]["stm"],
        ]
        for device, data in result.items()
    ]
    print(format_table(
        ["device", "rdQ base", "rdQ McC", "rdQ STM",
         "wrQ base", "wrQ McC", "wrQ STM"], rows))


def _print_fig8(result) -> None:
    for channel, series in sorted(result.items()):
        buckets = sorted(set().union(*[set(h) for h in series.values()]))
        rows = [
            [b, series["baseline"].get(b, 0), series["mcc"].get(b, 0),
             series["stm"].get(b, 0)]
            for b in buckets
        ]
        print(f"channel {channel}:")
        print(format_table(["queue len", "baseline", "McC", "STM"], rows))


def _print_fig10(result) -> None:
    rows = []
    for workload, metrics in result.items():
        for metric, series in metrics.items():
            rows.append([workload, metric, series["baseline"], series["mcc"],
                         series["stm"]])
    print(format_table(["workload", "metric", "baseline", "McC", "STM"], rows))


def _print_fig11(result) -> None:
    rows = []
    for workload, channels in result.items():
        for channel, series in sorted(channels.items()):
            rows.append([workload, channel, series["baseline"], series["mcc"],
                         series["stm"]])
    print(format_table(["workload", "channel", "baseline", "McC", "STM"], rows))


def _print_fig12(result) -> None:
    for operation in ("read", "write"):
        print(f"{operation} bursts:")
        rows = []
        for channel, series in sorted(result[operation].items()):
            for bank in sorted(series["baseline"]):
                rows.append([channel, bank, series["baseline"][bank],
                             series["mcc"][bank], series["stm"][bank]])
        print(format_table(["channel", "bank", "baseline", "McC", "STM"], rows))


def _print_fig13(result) -> None:
    rows = []
    for device, series in result.items():
        for interval, error in series:
            rows.append([device, interval, error])
    print(format_table(["device", "interval", "latency err %"], rows))


def _print_fig14(result) -> None:
    rows = []
    for config, series in result.items():
        for name, data in series.items():
            rows.append([config, name, data["l1_miss_rate"], data["l2_miss_rate"]])
    print(format_table(["config", "series", "L1 miss %", "L2 miss %"], rows))


def _print_assoc(result) -> None:
    rows = []
    for name, per_assoc in result.items():
        for associativity, series in sorted(per_assoc.items()):
            rows.append([name, associativity, series["baseline"],
                         series["dynamic"], series["hrd"]])
    print(format_table(["benchmark", "assoc", "baseline", "Mocktails", "HRD"], rows))


def _print_fig17(result) -> None:
    rows = [
        [name, sizes["trace"], sizes["dynamic"], sizes["fixed4k"],
         sizes["dynamic"] / sizes["trace"]]
        for name, sizes in result.items()
    ]
    print(format_table(["benchmark", "trace B", "dynamic B", "4KB B", "ratio"], rows))


def _print_sampling(result) -> None:
    rows = []
    for name, data in result.items():
        rows.append([
            name,
            data["interval_count"],
            data["k"],
            "yes" if data["exact"] else "no",
            f"{data['geomean_error_percent']:.2f}",
            f"{data['error_bound_percent']:.2f}",
            "yes" if data["within_bound"] else "NO",
        ])
    print(format_table(
        ["workload", "intervals", "K", "exact", "geomean err %",
         "bound %", "within"], rows))


EXPERIMENTS = {
    "fig2": (experiments.figure_2, _print_fig2),
    "fig3": (experiments.figure_3, _print_fig3),
    "table1": (experiments.table_1, _print_table1),
    "fig6": (experiments.figure_6,
             lambda r: _print_error_figure(r, ("read_bursts", "write_bursts"))),
    "fig7": (experiments.figure_7, _print_fig7),
    "fig8": (experiments.figure_8, _print_fig8),
    "fig9": (experiments.figure_9,
             lambda r: _print_error_figure(r, ("read_row_hits", "write_row_hits"))),
    "fig10": (experiments.figure_10, _print_fig10),
    "fig11": (experiments.figure_11, _print_fig11),
    "fig12": (experiments.figure_12, _print_fig12),
    "fig13": (experiments.figure_13, _print_fig13),
    "fig14": (experiments.figure_14, _print_fig14),
    "fig15": (experiments.figure_15, _print_assoc),
    "fig16": (experiments.figure_16, _print_assoc),
    "fig17": (experiments.figure_17, _print_fig17),
    "ext-chargecache": (experiments.extension_chargecache, None),
    "ext-soc": (experiments.extension_soc, None),
    "sampling": (experiments.sampling_fidelity, _print_sampling),
}


def _print_generic(result) -> None:
    """Fallback printer: nested dicts as a flat table."""
    rows = []
    headers = ["key"]
    for key, data in result.items():
        if isinstance(data, dict):
            headers = ["key"] + list(data.keys())
            rows.append([key] + list(data.values()))
        else:
            rows.append([key, data])
    print(format_table(headers, rows))


def run_experiment(name: str, num_requests: int, jobs: int = 1):
    runner, printer = EXPERIMENTS[name]
    registry = obs.active()
    start = time.perf_counter()

    def execute():
        # Prewarm fans out across workers and/or pulls memoized payloads
        # from the cross-run store; with one job and no store it would
        # just run the same work the runner runs, so it is skipped.
        if jobs > 1 or store.active_memo() is not None:
            from .parallel import jobs_for, prewarm

            prewarm(jobs_for(name, num_requests), processes=jobs)
        return runner(num_requests)

    if registry is not None:
        with registry.phase(name):
            result = execute()
    else:
        result = execute()
    elapsed = time.perf_counter() - start
    workers = f", {jobs} jobs" if jobs > 1 else ""
    print(f"\n=== {name} ({num_requests:,} requests/trace, {elapsed:.1f}s{workers}) ===")
    (printer or _print_generic)(result)
    return result


def _json_sanitize(value):
    """Experiment results as JSON-dumpable data (dict keys become strings)."""
    if isinstance(value, dict):
        return {str(key): _json_sanitize(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_sanitize(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def _format_bytes(count: int) -> str:
    value = float(count)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            return f"{value:.1f} {unit}" if unit != "B" else f"{int(value)} B"
        value /= 1024
    return f"{int(count)} B"  # pragma: no cover - unreachable


def run_cache_command(args) -> int:
    """The ``cache`` subcommand: stats / verify / gc / clear."""
    memo = store.ExperimentMemo(args.cache_dir or store.default_cache_dir())
    if args.cache_command == "stats":
        stats = memo.stats()
        print(f"cache dir:  {stats['root']}")
        print(f"entries:    {stats['entries']}")
        print(f"blobs:      {stats['blobs']}")
        print(f"size:       {_format_bytes(stats['bytes'])}")
        return 0
    if args.cache_command == "verify":
        report = memo.verify(evict_corrupt=not args.keep_corrupt)
        print(f"checked {report['checked']} blobs")
        for digest in report["corrupt"]:
            action = "kept" if args.keep_corrupt else "evicted (will recompute)"
            print(f"corrupt blob {digest[:16]}...: {action}")
        for key in report["dangling"]:
            action = "kept" if args.keep_corrupt else "dropped"
            print(f"dangling key {key[:16]}...: {action}")
        if not report["corrupt"] and not report["dangling"]:
            print("cache is clean")
        return 1 if args.keep_corrupt and (report["corrupt"] or report["dangling"]) else 0
    if args.cache_command == "gc":
        evicted = memo.gc(args.max_bytes)
        stats = memo.stats()
        print(
            f"evicted {len(evicted)} blobs; "
            f"{stats['blobs']} remain ({_format_bytes(stats['bytes'])})"
        )
        return 0
    if args.cache_command == "clear":
        removed = memo.clear()
        print(f"removed {removed} blobs from {memo.root}")
        return 0
    raise AssertionError(f"unknown cache command: {args.cache_command}")  # pragma: no cover


def run_stream_command(args) -> int:
    """The ``stream`` subcommand: out-of-core profile build + replay."""
    from ..core.hierarchy import micro_macro, two_level_rs, two_level_ts
    from ..stream import DEFAULT_BLOCK_REQUESTS, iter_blocks

    config = {
        "2lts": two_level_ts,
        "2lrs": two_level_rs,
        "micro-macro": micro_macro,
    }[args.config]()
    block_requests = (
        args.block_requests if args.block_requests is not None else DEFAULT_BLOCK_REQUESTS
    )

    start = time.perf_counter()
    if args.sample_intervals is not None:
        # Statistical sampling: fingerprint every outer interval in one
        # streaming pass, then fit only the K representatives (second
        # pass). Peak memory stays O(interval).
        from ..sample import sampled_profile_from_file

        profile, plan = sampled_profile_from_file(
            args.trace,
            config,
            k=args.sample_intervals,
            seed=args.sample_seed or 0,
            block_requests=block_requests,
            backend=args.backend,
        )
        elapsed = time.perf_counter() - start
        total_requests = sum(leaf.count for leaf in profile)
        mode = (
            "exact (K covers every interval)"
            if plan.exact
            else f"error bound {plan.error_bound_percent:.1f}%"
        )
        print(
            f"sampled {len(plan.representatives)} of {plan.interval_count} "
            f"intervals ({mode}); profiled {total_requests:,} requests into "
            f"{len(profile)} leaves in {elapsed:.1f}s "
            f"(blocks of {block_requests:,})"
        )
    elif args.jobs > 1:
        from ..stream import build_profile_sharded

        profile = build_profile_sharded(
            args.trace,
            config,
            jobs=args.jobs,
            block_requests=block_requests,
            backend=args.backend,
        )
        elapsed = time.perf_counter() - start
        total_requests = sum(leaf.count for leaf in profile)
        print(
            f"profiled {total_requests:,} requests into {len(profile)} leaves "
            f"in {elapsed:.1f}s (blocks of {block_requests:,}, {args.jobs} jobs)"
        )
    else:
        from ..stream import build_profile_streaming

        profile = build_profile_streaming(
            iter_blocks(args.trace, block_requests), config, backend=args.backend
        )
        elapsed = time.perf_counter() - start
        total_requests = sum(leaf.count for leaf in profile)
        print(
            f"profiled {total_requests:,} requests into {len(profile)} leaves "
            f"in {elapsed:.1f}s (blocks of {block_requests:,})"
        )

    if args.profile_out:
        from ..core.serialization import save_profile

        size = save_profile(profile, args.profile_out)
        print(f"wrote profile to {args.profile_out} ({_format_bytes(size)})")

    if args.replay == "cache":
        from ..sim.cache_driver import run_cache_blocks

        start = time.perf_counter()
        result = run_cache_blocks(
            iter_blocks(args.trace, block_requests), backend=args.backend
        )
        elapsed = time.perf_counter() - start
        print(
            f"cache replay ({elapsed:.1f}s): "
            f"L1 miss rate {result.l1_miss_rate:.4f}, "
            f"L2 miss rate {result.l2_miss_rate:.4f}"
        )
    elif args.replay == "dram":
        from ..sim.driver import simulate_blocks

        start = time.perf_counter()
        stats = simulate_blocks(iter_blocks(args.trace, block_requests))
        elapsed = time.perf_counter() - start
        print(
            f"dram replay ({elapsed:.1f}s): "
            f"{stats.latency_count:,} accesses, "
            f"avg latency {stats.avg_access_latency:.1f} cycles"
        )
    return 0


def _positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.eval",
        description="Regenerate the paper's tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list experiment names")
    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("experiment", choices=sorted(EXPERIMENTS))
    run.add_argument("--requests", type=_positive_int, default=20_000,
                     help="requests per trace (default 20,000)")
    quick = sub.add_parser(
        "quick", help="run one experiment at a reduced quick scale"
    )
    quick.add_argument("experiment", choices=sorted(EXPERIMENTS))
    quick.add_argument("--requests", type=_positive_int, default=2_000,
                       help="requests per trace (default 2,000)")
    everything = sub.add_parser("all", help="run every experiment")
    everything.add_argument("--requests", type=_positive_int, default=20_000)
    for command in (run, quick, everything):
        command.add_argument(
            "--jobs", type=_positive_int, default=1,
            help="worker processes for the simulation fan-out "
                 "(default 1 = serial; results are identical)")
        command.add_argument(
            "--metrics-out", metavar="PATH", default=None,
            help="write a run manifest (host, seeds, scale, phase wall "
                 "times, all metric values) as JSON to PATH")
        command.add_argument(
            "--trace-events", metavar="PATH", default=None,
            help="stream structured events (job starts/finishes, DRAM "
                 "enqueue/issue/drain, worker heartbeats) as JSONL to PATH")
        command.add_argument(
            "--json-out", metavar="PATH", default=None,
            help="write the experiment results (the same data the tables "
                 "print) as JSON to PATH")
        command.add_argument(
            "--cache-dir", metavar="DIR", default=None,
            help="cross-run result cache directory (default ~/.cache/repro "
                 "or $REPRO_CACHE_DIR; see 'cache' subcommand)")
        command.add_argument(
            "--no-cache", action="store_true",
            help="disable the cross-run result cache for this invocation")
        command.add_argument(
            "--sanitize", action="store_true",
            help="validate every simulated request against the trace "
                 "invariants (monotonic timestamps, legal addresses and "
                 "operations); fails fast on the first violation")
        command.add_argument(
            "--backend", choices=("auto", "scalar", "columnar"), default=None,
            help="trace data path: 'scalar' walks per-request objects, "
                 "'columnar' uses vectorized column passes, 'auto' (the "
                 "default) picks columnar when numpy is available; "
                 "results are bit-identical either way")
        command.add_argument(
            "--stream", action="store_true",
            help="build every profile through the out-of-core streaming "
                 "path (repro.stream): O(block) peak memory, results "
                 "bit-identical to the in-memory build")
        command.add_argument(
            "--block-requests", type=_positive_int, default=None, metavar="N",
            help="streaming block size in requests (default 8,192; "
                 "implies nothing without --stream)")
        command.add_argument(
            "--sample-intervals", type=_positive_int, default=None, metavar="K",
            help="statistical sampling: cluster each trace's outer "
                 "temporal intervals and simulate only K weighted "
                 "representatives (repro.sample); K >= the interval "
                 "count reproduces the full pipeline byte-identically. "
                 "Used by the 'sampling' experiment")
        command.add_argument(
            "--sample-seed", type=int, default=None, metavar="SEED",
            help="clustering seed for --sample-intervals (default 0; "
                 "results are deterministic for a fixed seed)")

    stream = sub.add_parser(
        "stream",
        help="profile (and optionally replay) a trace file out-of-core",
        description="Stream a .mtr/.csv trace (plain or gz) through the "
                    "chunked profile build without ever loading it whole; "
                    "optionally replay it through the cache or DRAM "
                    "simulators the same way.",
    )
    stream.add_argument("trace", help="trace file (.mtr/.csv, optionally .gz)")
    stream.add_argument(
        "--config", choices=("2lts", "2lrs", "micro-macro"), default="2lts",
        help="hierarchy configuration (default 2lts, the paper's "
             "two-level temporal/spatial split)")
    stream.add_argument(
        "--profile-out", metavar="PATH", default=None,
        help="save the resulting profile (gzip JSON) to PATH")
    stream.add_argument(
        "--replay", choices=("none", "cache", "dram"), default="none",
        help="additionally replay the trace block-by-block through the "
             "L1/L2 cache or the crossbar+DRAM simulator")
    stream.add_argument(
        "--jobs", type=_positive_int, default=1,
        help="worker processes for the sharded map-reduce build "
             "(default 1 = sequential; results are identical)")
    stream.add_argument(
        "--block-requests", type=_positive_int, default=None, metavar="N",
        help="requests per streamed block (default 8,192)")
    stream.add_argument(
        "--backend", choices=("auto", "scalar", "columnar"), default=None,
        help="trace data path (see 'run --backend')")
    stream.add_argument(
        "--sample-intervals", type=_positive_int, default=None, metavar="K",
        help="profile only K representative outer intervals (two "
             "streaming passes: fingerprint, then fit; K >= the "
             "interval count is byte-identical to the full build)")
    stream.add_argument(
        "--sample-seed", type=int, default=None, metavar="SEED",
        help="clustering seed for --sample-intervals (default 0)")

    cache = sub.add_parser(
        "cache", help="inspect and maintain the cross-run result cache"
    )
    cache.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="cache directory (default ~/.cache/repro or $REPRO_CACHE_DIR)")
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    stats = cache_sub.add_parser("stats", help="entry/blob counts and total size")
    verify = cache_sub.add_parser(
        "verify", help="re-hash every blob, evicting corrupt entries"
    )
    verify.add_argument(
        "--keep-corrupt", action="store_true",
        help="report corruption without evicting (exit 1 if any found)")
    gc = cache_sub.add_parser("gc", help="LRU-evict blobs past a size budget")
    gc.add_argument(
        "--max-bytes", type=int, default=2 * 1024**3,
        help="byte budget to shrink the store to (default 2 GiB)")
    clear = cache_sub.add_parser("clear", help="remove every cached entry")
    for cache_command in (stats, verify, gc, clear):
        # SUPPRESS: a trailing `cache stats --cache-dir X` wins, but when
        # omitted it does not clobber a prefix `cache --cache-dir X stats`.
        cache_command.add_argument(
            "--cache-dir", metavar="DIR", default=argparse.SUPPRESS,
            help="cache directory (default ~/.cache/repro or $REPRO_CACHE_DIR)")

    args = parser.parse_args(argv)
    if args.command == "list":
        for name in sorted(EXPERIMENTS):
            print(name)
        return 0
    if args.command == "cache":
        return run_cache_command(args)
    if args.command == "stream":
        return run_stream_command(args)

    if args.backend is not None:
        # set_backend records the choice in MOCKTAILS_BACKEND, so
        # parallel worker processes inherit it.
        from ..core.columnar import set_backend

        set_backend(args.backend)

    stream_env = None
    if args.stream or args.block_requests is not None:
        # set_stream_mode records the choice in MOCKTAILS_STREAM /
        # MOCKTAILS_STREAM_BLOCK_REQUESTS, so workers inherit it; the
        # prior values are restored on the way out.
        import os

        from ..stream import _BLOCK_ENV, _STREAM_ENV, set_stream_mode

        stream_env = {
            key: os.environ.get(key) for key in (_STREAM_ENV, _BLOCK_ENV)
        }
        set_stream_mode(args.stream, args.block_requests)

    sample_env = None
    if args.sample_intervals is not None:
        # set_sampling records the choice in MOCKTAILS_SAMPLE_INTERVALS /
        # MOCKTAILS_SAMPLE_SEED, so parallel workers inherit it and
        # repro.store.memo folds it into every cache key; the prior
        # values are restored on the way out.
        import os

        from ..sample import _K_ENV, _SEED_ENV, set_sampling

        sample_env = {key: os.environ.get(key) for key in (_K_ENV, _SEED_ENV)}
        set_sampling(args.sample_intervals, args.sample_seed)

    registry = None
    if args.metrics_out or args.trace_events:
        sink = obs.JsonlEventSink(args.trace_events) if args.trace_events else None
        registry = obs.enable(sink)

    memo = None
    if not args.no_cache:
        memo = store.configure(args.cache_dir)

    if args.sanitize:
        from ..lint import sanitize as lint_sanitize

        lint_sanitize.enable()

    try:
        names = [args.experiment] if args.command in ("run", "quick") else list(EXPERIMENTS)
        results = {}
        for name in names:
            results[name] = run_experiment(name, args.requests, jobs=args.jobs)
        if memo is not None:
            print(
                f"\ncache: {memo.hits} hits, {memo.misses} misses"
                + (f", {memo.corrupt} corrupt (recomputed)" if memo.corrupt else "")
                + f" ({memo.root})"
            )
        if args.json_out:
            from ..store.atomic import atomic_write_text

            payload = json.dumps(_json_sanitize(results), indent=2, sort_keys=True)
            atomic_write_text(args.json_out, payload + "\n")
            print(f"wrote results to {args.json_out}")
        if registry is not None and args.metrics_out:
            manifest = obs.build_manifest(
                registry,
                command=" ".join(["python -m repro.eval"] + list(argv or sys.argv[1:])),
                scale={"requests": args.requests, "jobs": args.jobs},
                seeds={"base": 0, "synthesis": 1},
                extra={"experiments": names},
            )
            obs.write_manifest(args.metrics_out, manifest)
            print(f"wrote run manifest to {args.metrics_out}")
        if args.trace_events:
            print(f"wrote {registry.sink.emitted if registry.sink else 0:,} "
                  f"events to {args.trace_events}")
    finally:
        if stream_env is not None:
            import os

            for key, value in stream_env.items():
                if value is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = value
        if sample_env is not None:
            import os

            for key, value in sample_env.items():
                if value is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = value
        if args.sanitize:
            from ..lint import sanitize as lint_sanitize

            lint_sanitize.disable()
        if memo is not None:
            store.deactivate()
        if registry is not None:
            obs.disable()
    return 0


if __name__ == "__main__":
    sys.exit(main())
