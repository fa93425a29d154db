"""One benchmark run of one workload, in a fresh process.

Started by ``run.py``; prints one JSON object as its last stdout line.
The parent takes set-up time as the span from spawning this process to
the ``ready`` timestamp (``time.monotonic`` is system-wide on Linux):
interpreter start, importing ``repro`` and resolving the backend. The
timed region covers the workload's items and nothing else; digests,
sums and the figure digest are computed after it.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback

import pipelines
import spans
from repro.core.columnar import numpy_or_none, resolve_backend


def _ready() -> dict:
    numpy = numpy_or_none()
    backend = resolve_backend()
    if numpy is not None and backend != "columnar":
        raise SystemExit(f"numpy {numpy.__version__} imports but the backend resolved to {backend}")
    return {
        "ready": time.monotonic(),
        "backend": backend,
        "numpy": numpy.__version__ if numpy is not None else None,
    }


def run(workload: str, seed: int, scale: pipelines.Scale, traced: bool) -> dict:
    """Run every item of ``workload``; returns outputs' digests and timings."""
    definition = pipelines.WORKLOADS[workload]
    items = definition.items(seed, scale)
    tracer = spans.Tracer() if traced else None
    outputs, digests, errors, item_s, requests = {}, {}, {}, {}, 0
    if tracer is not None:
        tracer.start()
    start = time.perf_counter()
    for item_id, pipeline in items:
        if tracer is not None:
            tracer.item = item_id
        began = time.perf_counter()
        try:
            outputs[item_id], item_requests = pipeline()
        except Exception:  # one failed pipeline is one failed op, not a crash
            errors[item_id] = traceback.format_exc(limit=-3)
            continue
        item_s[item_id] = time.perf_counter() - began
        requests += item_requests
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for item_id, _ in items:
        digests[item_id] = pipelines.digest(outputs[item_id]) if item_id in outputs else None
    result = {
        "workload": workload,
        "seed": seed,
        "scale": scale._asdict(),
        "traced": traced,
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb,
        "requests": requests,
        "items": digests,
        "item_s": item_s,
        "errors": errors,
        "sums": pipelines.exact_sums(outputs),
        "model_error_pct": None,
        "figure": None,
    }
    if definition.model_error is not None and outputs:
        result["model_error_pct"] = definition.model_error(outputs)
    if definition.figure is not None and seed == 0 and scale == pipelines.DEFAULT_SCALE:
        name, figure = definition.figure
        result["figure"] = {"name": name, "digest": None}
        try:
            result["figure"]["digest"] = pipelines.digest(figure(scale))
        except Exception:
            errors[name] = traceback.format_exc(limit=-3)
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(wall)
        result["spans"] = [span.to_dict() for span in tracer.spans]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(pipelines.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--probe", action="store_true", help="exit once ready")
    parser.add_argument("--table2-requests", type=int, default=pipelines.DEFAULT_SCALE.table2_requests)
    parser.add_argument("--spec-requests", type=int, default=pipelines.DEFAULT_SCALE.spec_requests)
    parser.add_argument("--items", type=int, default=None)
    args = parser.parse_args(argv)
    result = _ready()
    if not args.probe:
        if args.workload is None:
            parser.error("--workload is required unless --probe is given")
        scale = pipelines.Scale(args.table2_requests, args.spec_requests, args.items)
        result.update(run(args.workload, args.seed, scale, args.traced))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
