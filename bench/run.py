"""Benchmark of record for the figure pipeline.

Runs each workload in fresh single-threaded child processes, one at a
time, checks every simulated output against the first run, against the
traced run and (at seed 0) against ``goldens.json``, and prints every
metric by name with its unit. The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, carrying the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0`` and its
per-layer metrics with ``--trace 1``.

    python3 bench/run.py                        # all workloads, 5 repeats
    python3 bench/run.py --workload interval_sweep --seconds 25 --trace 0
    python3 bench/compare.py A.json B.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
GOLDENS = BENCH / "goldens.json"
WORKLOADS = ("dram_validation", "interval_sweep", "cache_validation", "scalar_replay")
#: Set-up-only children before each workload child, so that ``setup_s``
#: is a median of many samples.
PROBES_PER_RUN = 2
CHILD_TIMEOUT_S = 120


class BenchError(Exception):
    """The benchmark cannot run here; the message names the problem."""


def unit_of(name: str) -> str:
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("rps"):
        return "1/s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def summarize(values: List[float]) -> dict:
    """Median, quartiles and sample count of ``values``.

    Quartiles interpolate between samples ("inclusive"), so that with
    five runs one slow run does not become the upper quartile.
    """
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def load_benchmark() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path.name}: {exc}") from None


# -- child processes -----------------------------------------------------------


def child_env() -> Dict[str, str]:
    """The fixed child environment: no MOCKTAILS_* switches, one thread."""
    env = {key: val for key, val in os.environ.items() if not key.startswith("MOCKTAILS_")}
    env["OMP_NUM_THREADS"] = env["OPENBLAS_NUM_THREADS"] = "1"
    # String hashing changes dict layouts, and so timings, from one process
    # to the next; results do not depend on it.
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return env


def spawn(workload: Optional[str], seed: int, traced: bool = False, probe: bool = False,
          scale_args: Optional[List[str]] = None) -> dict:
    """Run one child; returns its result, or ``{"crash": message}``."""
    command = [sys.executable, str(BENCH / "child.py"), "--seed", str(seed)]
    if workload is not None:
        command += ["--workload", workload]
    if traced:
        command.append("--traced")
    if probe:
        command.append("--probe")
    command += scale_args or []
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"crash": f"child timed out after {CHILD_TIMEOUT_S}s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
        return {"crash": tail[0]}
    result = json.loads(lines[-1])
    result["setup_s"] = result.pop("ready") - spawned
    return result


def _schedule(workloads, repeats, seconds, trace, seed, log):
    """Run children one at a time; returns per-workload child results.

    With ``repeats``: round-robin over workloads, ``repeats`` untraced
    rounds, then one traced round. With ``seconds``: per workload,
    untraced (alternating with traced when ``trace``) children until the
    next would overrun the budget, at least one of each kind. Set-up
    probes go just before each child, so that they spread over the run
    as the children do.
    """
    runs = {w: {"probes": [], "untraced": [], "traced": []} for w in workloads}
    spawn(None, seed, probe=True)  # warm-up: compiles bytecode caches

    def one(workload, traced):
        runs[workload]["probes"] += [spawn(None, seed, probe=True) for _ in range(PROBES_PER_RUN)]
        result = spawn(workload, seed, traced=traced)
        runs[workload]["traced" if traced else "untraced"].append(result)
        log(workload, traced, result)

    if seconds is None:
        for _ in range(repeats):
            for workload in workloads:
                one(workload, False)
        if trace:
            for workload in workloads:
                one(workload, True)
        return runs
    for workload in workloads:
        start = time.monotonic()
        durations = []
        traced = False
        while True:
            began = time.monotonic()
            one(workload, traced)
            durations.append(time.monotonic() - began)
            if trace:
                traced = not traced
            elapsed = time.monotonic() - start
            need_traced = trace and not runs[workload]["traced"]
            if not need_traced and elapsed + statistics.median(durations) > seconds:
                break
    return runs


# -- verification and metrics --------------------------------------------------


def _goldens_for(workload: str, seed: int, scale: dict) -> Optional[dict]:
    if not GOLDENS.is_file():
        return None
    goldens = json.loads(GOLDENS.read_text())
    if goldens.get("seed") != seed or goldens.get("scale") != scale:
        return None
    return goldens["workloads"].get(workload)


def check(children: List[dict], golden: Optional[dict]) -> dict:
    """Count ops and failures over every child run of one workload.

    An op is one item pipeline in one child, plus the figure where the
    child regenerated it. It fails if it raised, if its digest differs
    from the first run's (traced runs included: tracing only observes),
    or if it misses the golden. A crashed child fails every op.
    """
    reference = next((c for c in children if "crash" not in c), None)
    first = _digests(reference) if reference else {}
    pinned = _digests(golden) if golden else None
    attempted = failed = 0
    failures: List[str] = []
    for index, child in enumerate(children):
        label = f"run {index}{' (traced)' if child.get('traced') else ''}"
        if "crash" in child:
            attempted += max(len(first), 1)
            failed += max(len(first), 1)
            failures.append(f"{label}: crashed: {child['crash']}")
            continue
        for op, value in _digests(child).items():
            attempted += 1
            if value is None:
                problem = "raised: " + child["errors"][op].strip().splitlines()[-1]
            elif value != first.get(op):
                problem = "digest differs from run 0"
            elif pinned is not None and value != pinned.get(op):
                problem = "digest misses the golden"
            else:
                continue
            failed += 1
            failures.append(f"{label}: {op}: {problem}")
    return {"attempted": attempted, "failed": failed, "failures": failures}


def _digests(result: dict) -> Dict[str, Optional[str]]:
    """Op name -> digest (``None`` if it raised) of a child or golden."""
    digests = dict(result["items"])
    if result.get("figure") is not None:
        digests[result["figure"]["name"]] = result["figure"]["digest"]
    return digests


def best_of(children: List[dict]) -> float:
    """Sum over items of each item's fastest time among ``children``.

    Co-tenant load slows this kind of host by 1.3-1.6x for seconds at a
    time; an item's best time over fresh processes rejects that, where a
    median of three or four whole runs does not.
    """
    item_s = [c["item_s"] for c in children]
    items = {item for times in item_s for item in times}
    return sum(min(times[item] for times in item_s if item in times) for item in items)


def workload_result(runs: dict, golden: Optional[dict]) -> dict:
    untraced = [c for c in runs["untraced"] if "crash" not in c]
    traced = [c for c in runs["traced"] if "crash" not in c]
    probes = [c for c in runs["probes"] if "crash" not in c]
    verdict = check(runs["untraced"] + runs["traced"], golden)
    samples = {
        "wall_s": [c["wall_s"] for c in untraced],
        "throughput_rps": [c["requests"] / c["wall_s"] for c in untraced],
        "setup_s": [c["setup_s"] for c in probes + untraced + traced],
        "peak_rss_mb": [c["peak_rss_mb"] for c in untraced],
    }
    metrics = {name: dict(summarize(vals), unit=unit_of(name)) for name, vals in samples.items() if vals}
    if untraced:
        # The run's value of each timing: the median, except that wall time
        # sums each item's best time over the run's children (see README).
        for metric in metrics.values():
            metric["value"] = metric["median"]
        metrics["wall_s"]["value"] = best = best_of(untraced)
        metrics["throughput_rps"]["value"] = untraced[0]["requests"] / best
    reference = (untraced + traced)[:1]
    metrics["model_error_pct"] = {
        "value": reference[0]["model_error_pct"] if reference else None, "unit": "%"
    }
    metrics["ops_failed_pct"] = {
        "value": 100.0 * verdict["failed"] / max(verdict["attempted"], 1), "unit": "%"
    }
    result = {
        "runs": [
            {key: c[key] for key in ("traced", "setup_s", "wall_s", "item_s")}
            for c in untraced + traced
        ],
        "samples": samples,
        "metrics": metrics,
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "failures": verdict["failures"],
        "golden_checked": golden is not None,
        "items": reference[0]["items"] if reference else {},
        "figure": reference[0]["figure"] if reference else None,
        "sums": reference[0]["sums"] if reference else {},
    }
    if traced:
        layers = {
            name: statistics.median(c["layers"][name] for c in traced) for name in traced[0]["layers"]
        }
        layers["traced_wall_s"] = statistics.median(c["wall_s"] for c in traced)
        if untraced:
            layers["trace.overhead_pct"] = 100.0 * (
                layers["traced_wall_s"] / metrics["wall_s"]["median"] - 1.0
            )
        layers.update(result["sums"])
        result["layers"] = layers
    return result


# -- host and output -------------------------------------------------------------


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def _git_sha() -> Optional[str]:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def host_info(probe: dict, seed: int, scale: Optional[dict]) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": probe.get("numpy"),
        "backend": probe.get("backend"),
        "git_sha": _git_sha(),
        "seed": seed,
        "scale": scale,
    }


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def print_table(results: Dict[str, dict]) -> None:
    for workload, result in results.items():
        print(f"== {workload}: {result['failed']}/{result['attempted']} ops failed")
        for name, metric in result["metrics"].items():
            if "median" in metric:
                print(f"  {name:<34} {_fmt(metric['value']):>12} {metric['unit']:<6}"
                      f" median {_fmt(metric['median'])}  q1 {_fmt(metric['q1'])}"
                      f"  q3 {_fmt(metric['q3'])}  n={metric['n']}")
            else:
                print(f"  {name:<34} {_fmt(metric['value']):>12} {metric['unit']}")
        for name, value in result.get("layers", {}).items():
            print(f"  {name:<34} {_fmt(value):>12} {unit_of(name)}")
        for failure in result["failures"]:
            print(f"  FAIL {failure}")


def summary_line(results: Dict[str, dict], trace: bool, benchmark: dict) -> dict:
    """The contract's last line; several workloads prefix metric names."""
    names = [m["name"] for m in benchmark["per_layer" if trace else "end_to_end"]]
    metrics = {}
    for workload, result in results.items():
        prefix = "" if len(results) == 1 else workload + "."
        for name in names:
            if trace:
                value = result.get("layers", {}).get(name)
            else:
                value = result["metrics"].get(name, {}).get("value")
            metrics[prefix + name] = {"value": value, "unit": unit_of(name)}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    complete = all(m["value"] is not None for m in metrics.values())
    return {
        "correct": failed == 0 and attempted > 0 and complete,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def write_goldens(results: Dict[str, dict], seed: int, scale: dict) -> None:
    if any(r["failed"] for r in results.values()):
        raise BenchError("refusing to write goldens from a run with failed ops")
    goldens = json.loads(GOLDENS.read_text()) if GOLDENS.is_file() else {}
    if goldens.get("seed") != seed or goldens.get("scale") != scale:
        goldens = {"seed": seed, "scale": scale, "workloads": {}}
    for workload, result in results.items():
        goldens["workloads"][workload] = {"items": result["items"], "figure": result["figure"]}
    GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDENS.relative_to(ROOT)} for {', '.join(results)}")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Figure-pipeline benchmark of record.")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, default=0, help="input seed (default 0)")
    parser.add_argument("--repeats", type=int, help="untraced runs per workload (default 5)")
    parser.add_argument("--seconds", type=int,
                        help="time budget per workload instead of a repeat count")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="also make traced runs; the last line then holds per-layer metrics")
    parser.add_argument("--out", type=Path, help="result file (default bench/out/result-seed<N>.json)")
    parser.add_argument("--write-goldens", action="store_true",
                        help="pin this run's digests in bench/goldens.json (seed 0 only)")
    args = parser.parse_args(argv)
    if args.repeats is not None and args.seconds is not None:
        parser.error("give either --repeats or --seconds, not both")
    if args.repeats is not None and args.repeats < 1:
        parser.error(f"--repeats must be at least 1, got {args.repeats}")
    if args.seconds is not None and args.seconds < 1:
        parser.error(f"--seconds must be at least 1, got {args.seconds}")
    if args.seed < 0:
        parser.error(f"--seed must be non-negative, got {args.seed}")
    if args.write_goldens and args.seed != 0:
        parser.error("--write-goldens pins seed 0 only")
    if args.repeats is None and args.seconds is None:
        args.repeats = 5
    args.workload = list(dict.fromkeys(args.workload or WORKLOADS))
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro package under {SRC}: run from a full checkout")
    benchmark = load_benchmark()
    started = time.monotonic()

    def log(workload, traced, result):
        state = result.get("crash") or f"wall {result['wall_s']:.3f}s"
        print(f"[{time.monotonic() - started:7.1f}s] {workload}{' traced' if traced else ''}: {state}",
              flush=True)

    runs = _schedule(args.workload, args.repeats, args.seconds, args.trace, args.seed, log)
    completed = [c for w in runs.values() for c in w["untraced"] + w["traced"] if "crash" not in c]
    scale = completed[0]["scale"] if completed else None
    results = {}
    for workload in args.workload:
        golden = None if args.write_goldens else _goldens_for(workload, args.seed, scale)
        results[workload] = workload_result(runs[workload], golden)
        traced = [c for c in runs[workload]["traced"] if "crash" not in c]
        if traced:
            OUT.mkdir(exist_ok=True)
            trace_file = OUT / f"trace-{workload}.json"
            trace_file.write_text(json.dumps({
                "workload": workload, "seed": args.seed, "wall_s": traced[-1]["wall_s"],
                "layers": traced[-1]["layers"], "spans": traced[-1]["spans"],
            }))
    probe = next((p for w in runs.values() for p in w["probes"] if "crash" not in p), {})
    report = {
        "schema": 1,
        "host": host_info(probe, args.seed, scale),
        "settings": {"repeats": args.repeats, "seconds": args.seconds, "trace": bool(args.trace)},
        "workloads": results,
    }
    out = args.out or OUT / f"result-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    print_table(results)
    print(f"results: {out}")
    if args.write_goldens:
        write_goldens(results, args.seed, scale)
    print(json.dumps(summary_line(results, bool(args.trace), benchmark)))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"bench/run.py: error: {exc}", file=sys.stderr)
        sys.exit(2)
