"""Compare two ``bench/run.py`` result files: A (parent) against B (change).

    python3 bench/compare.py A.json B.json

For every workload and end-to-end metric of ``BENCHMARK.json`` it prints
each side's median and quartiles, and a verdict:

* ``REGRESSION`` — B's median is worse than A's by more than the bound;
* ``unresolved`` — a side's spread (IQR / median) exceeds the bound and
  not every B run beats every A run, so no verdict is possible;
* ``ok`` otherwise.

``model_error_pct`` must be equal and ``ops_failed_pct`` may not rise.
With the same seed and scale, every per-item and figure digest must
match. Exits 1 on a regression or a digest mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from run import load_benchmark, summarize


def _spread(stats: dict) -> float:
    return (stats["q3"] - stats["q1"]) / stats["median"] if stats["median"] else 0.0


def compare_metric(spec: dict, a: list, b: list) -> tuple:
    """(verdict, A summary, B summary) for one end-to-end metric."""
    sa, sb = summarize(a), summarize(b)
    lower = spec["better"] == "lower"
    worse_by = (sb["median"] - sa["median"]) / sa["median"]
    if not lower:
        worse_by = -worse_by
    b_always_better = max(b) < min(a) if lower else min(b) > max(a)
    if max(_spread(sa), _spread(sb)) > spec["bound"] and not b_always_better:
        return "unresolved", sa, sb
    if worse_by > spec["bound"]:
        return "REGRESSION", sa, sb
    return "ok", sa, sb


def compare(a: dict, b: dict, benchmark: dict) -> int:
    failures = 0
    same_inputs = a["host"]["seed"] == b["host"]["seed"] and a["host"]["scale"] == b["host"]["scale"]
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            print(f"== {workload}: missing from B")
            failures += 1
            continue
        wa, wb = a["workloads"][workload], b["workloads"][workload]
        print(f"== {workload}")
        for spec in benchmark["end_to_end"]:
            name = spec["name"]
            if not wa["samples"].get(name) or not wb["samples"].get(name):
                print(f"  {name:<16} no samples")
                continue
            verdict, sa, sb = compare_metric(spec, wa["samples"][name], wb["samples"][name])
            failures += verdict == "REGRESSION"
            print(
                f"  {name:<16} A {sa['median']:.6g} [{sa['q1']:.6g}, {sa['q3']:.6g}] n={sa['n']}"
                f"  B {sb['median']:.6g} [{sb['q1']:.6g}, {sb['q3']:.6g}] n={sb['n']}"
                f"  {spec['unit']}  bound {spec['bound']:.0%}  {verdict}"
            )
        fa = wa["metrics"]["ops_failed_pct"]["value"]
        fb = wb["metrics"]["ops_failed_pct"]["value"]
        if fb > fa:
            print(f"  ops_failed_pct   A {fa:.4g}  B {fb:.4g}  REGRESSION")
            failures += 1
        if not same_inputs:
            continue
        ea = wa["metrics"]["model_error_pct"]["value"]
        eb = wb["metrics"]["model_error_pct"]["value"]
        if ea != eb:
            print(f"  model_error_pct  A {ea}  B {eb}  MISMATCH")
            failures += 1
        differing = sorted(
            item for item in set(wa["items"]) | set(wb["items"])
            if wa["items"].get(item) != wb["items"].get(item)
        )
        if wa["figure"] != wb["figure"]:
            differing.append("figure")
        if differing:
            print(f"  DIGEST MISMATCH: {', '.join(differing)}")
            failures += 1
        else:
            print(f"  digests identical ({len(wa['items'])} items)")
    if not same_inputs:
        print("seeds or scales differ: digests and model error not compared")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare two bench/run.py result files.")
    parser.add_argument("a", type=Path, help="baseline (parent) result file")
    parser.add_argument("b", type=Path, help="candidate (change) result file")
    args = parser.parse_args(argv)
    results = []
    for path in (args.a, args.b):
        try:
            results.append(json.loads(path.read_text()))
        except (OSError, ValueError) as exc:
            parser.error(f"cannot read {path}: {exc}")
    return compare(results[0], results[1], load_benchmark())


if __name__ == "__main__":
    sys.exit(main())
