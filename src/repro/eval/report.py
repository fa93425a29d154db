"""Markdown report generation for full reproduction runs.

``python -m repro.eval all`` prints tables to stdout;
:func:`write_report` runs the same experiments and renders a
self-contained markdown report (the machinery behind refreshing
EXPERIMENTS.md at a new scale).
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from . import experiments
from ..core.atomic import atomic_write_text
from .metrics import percent_error


def _md_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    def render(cell) -> str:
        if isinstance(cell, float):
            return f"{cell:,.2f}"
        if isinstance(cell, int):
            return f"{cell:,}"
        return str(cell)

    lines = [
        "| " + " | ".join(headers) + " |",
        "|" + "|".join("---" for _ in headers) + "|",
    ]
    lines.extend("| " + " | ".join(render(c) for c in row) + " |" for row in rows)
    return "\n".join(lines)


def _section_fig6(num_requests: int) -> str:
    result = experiments.figure_6(num_requests)
    rows = [
        [
            device,
            data["read_bursts"]["mcc"], data["read_bursts"]["stm"],
            data["write_bursts"]["mcc"], data["write_bursts"]["stm"],
        ]
        for device, data in result.items()
    ]
    return "## Fig. 6 — DRAM burst error (%)\n\n" + _md_table(
        ["device", "rd McC", "rd STM", "wr McC", "wr STM"], rows
    )


def _section_fig9(num_requests: int) -> str:
    result = experiments.figure_9(num_requests)
    rows = [
        [
            device,
            data["read_row_hits"]["mcc"], data["read_row_hits"]["stm"],
            data["write_row_hits"]["mcc"], data["write_row_hits"]["stm"],
        ]
        for device, data in result.items()
    ]
    return "## Fig. 9 — row-hit error (%)\n\n" + _md_table(
        ["device", "rd McC", "rd STM", "wr McC", "wr STM"], rows
    )


def _section_fig10(num_requests: int) -> str:
    result = experiments.figure_10(num_requests)
    rows = []
    for workload, metrics in result.items():
        for metric, series in metrics.items():
            rows.append(
                [
                    workload, metric, series["baseline"], series["mcc"],
                    percent_error(series["mcc"], series["baseline"]),
                ]
            )
    return "## Fig. 10 — DPU row hits\n\n" + _md_table(
        ["workload", "metric", "baseline", "McC", "err %"], rows
    )


def _section_fig13(num_requests: int) -> str:
    result = experiments.figure_13(num_requests)
    rows = [
        [device, interval, error]
        for device, series in result.items()
        for interval, error in series
    ]
    return "## Fig. 13 — latency error vs interval (%)\n\n" + _md_table(
        ["device", "interval", "error %"], rows
    )


def _section_fig14(num_requests: int, benchmarks) -> str:
    result = experiments.figure_14(num_requests, benchmarks=benchmarks)
    rows = [
        [config, series, data["l1_miss_rate"], data["l2_miss_rate"]]
        for config, per_series in result.items()
        for series, data in per_series.items()
    ]
    return "## Fig. 14 — cache miss rates (geomean %)\n\n" + _md_table(
        ["config", "series", "L1 miss %", "L2 miss %"], rows
    )


def _section_fig17(num_requests: int, benchmarks) -> str:
    result = experiments.figure_17(num_requests, benchmarks=benchmarks)
    rows = [
        [name, sizes["trace"], sizes["dynamic"], sizes["dynamic"] / sizes["trace"]]
        for name, sizes in result.items()
    ]
    total_trace = sum(sizes["trace"] for sizes in result.values())
    total_dynamic = sum(sizes["dynamic"] for sizes in result.values())
    footer = (
        f"\n\nOverall profile/trace size ratio: "
        f"{total_dynamic / total_trace:.2f}"
    )
    return (
        "## Fig. 17 — trace vs profile sizes (bytes)\n\n"
        + _md_table(["benchmark", "trace", "dynamic profile", "ratio"], rows)
        + footer
    )


def build_report(
    num_requests: int = 10_000,
    spec_benchmarks: Optional[Sequence[str]] = None,
) -> str:
    """Run the headline experiments and render a markdown report."""
    if spec_benchmarks is None:
        spec_benchmarks = ["gobmk", "hmmer", "libquantum", "milc"]
    started = time.perf_counter()
    sections = [
        f"# Mocktails reproduction report\n\n"
        f"Scale: {num_requests:,} requests per trace.",
        _section_fig6(num_requests),
        _section_fig9(num_requests),
        _section_fig10(num_requests),
        _section_fig13(num_requests),
        _section_fig14(num_requests, spec_benchmarks),
        _section_fig17(num_requests, spec_benchmarks),
    ]
    sections.append(f"_Generated in {time.perf_counter() - started:.1f}s._")
    return "\n\n".join(sections) + "\n"


def write_report(
    path: Union[str, Path],
    num_requests: int = 10_000,
    spec_benchmarks: Optional[Sequence[str]] = None,
) -> Path:
    """Write :func:`build_report` output to ``path``; returns the path."""
    path = Path(path)
    atomic_write_text(path, build_report(num_requests, spec_benchmarks))
    return path
