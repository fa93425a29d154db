"""``repro.obs`` — observability for the simulation stack.

A lightweight metrics/tracing subsystem threaded through the hot layers
(synthesis, crossbar, DRAM controller, caches, the experiment runners):

* :class:`MetricsRegistry` — named counters, gauges, histograms and
  phase timers with context-manager scoping;
* :class:`JsonlEventSink` — optional structured-event stream (JSONL);
* :func:`build_manifest` / :func:`write_manifest` — run manifests
  (host info, seeds, scale, per-phase wall time, all registry values).

Observability is **off by default and zero-cost when off**: the
process-wide registry (:func:`active`) is ``None`` until :func:`enable`
is called, and every instrumentation site reduces to a single
``is None`` test on the disabled path. Enabling never perturbs
simulation results — instrumentation only reads state, so figure stats
are bit-identical either way.

Usage::

    from repro import obs

    registry = obs.enable(obs.JsonlEventSink("events.jsonl"))
    with registry.phase("fig6"):
        figure_6(20_000)
    obs.write_manifest("run.json", obs.build_manifest(registry))
    obs.disable()
"""

from .clock import wall_time
from .events import EventSink, JsonlEventSink, MemoryEventSink
from .manifest import build_manifest, host_info, write_manifest
from .registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    active,
    disable,
    enable,
    phase,
)

__all__ = [
    "Counter",
    "EventSink",
    "Gauge",
    "Histogram",
    "JsonlEventSink",
    "MemoryEventSink",
    "MetricsRegistry",
    "active",
    "build_manifest",
    "disable",
    "enable",
    "host_info",
    "phase",
    "wall_time",
    "write_manifest",
]
