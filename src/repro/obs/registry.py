"""Metrics registry: counters, gauges, histograms and phase timers.

The registry is the in-process half of the observability layer
(``repro.obs``). Instrumented code grabs the *active* registry once (at
construction or at the top of a run) via :func:`active` and holds on to
handle objects; the handles are plain ``__slots__`` objects whose update
methods are one short critical section, so instrumentation stays cheap
when enabled while staying exact under the engine/service layer's
thread concurrency (``x += 1`` is a LOAD/ADD/STORE triple under the
GIL and loses updates when preempted mid-read).

When no registry is active, :func:`active` returns ``None`` and every
instrumentation site degrades to one ``is None`` test — the disabled
path allocates nothing and calls nothing, which is what keeps figure
stats bit-identical and the replay hot loop at full speed.

Structured events (see :mod:`repro.obs.events`) ride on the same
registry: :meth:`MetricsRegistry.event` forwards to the attached sink,
and is a no-op when no sink is attached.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Iterator, Optional

from .events import EventSink


class Counter:
    """A monotonically increasing integer metric (thread-safe)."""

    __slots__ = ("value", "_lock")

    def __init__(self) -> None:
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self.value += amount


class Gauge:
    """A point-in-time value (last write wins; deltas are exact)."""

    __slots__ = ("value", "_lock")

    def __init__(self) -> None:
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value

    def add(self, delta: float) -> None:
        """Atomic read-modify-write; use for +=/-= style updates."""
        with self._lock:
            self.value += delta


class Histogram:
    """Streaming summary of observed samples (count/sum/min/max).

    Keeps O(1) state rather than the raw samples: the consumers
    (manifest, dashboards) want distribution summaries, and the
    producers (queue-depth sampling per enqueued burst) are hot.
    """

    __slots__ = ("count", "total", "min", "max", "_lock")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self.count += 1
            self.total += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
        }


class QueueGauges:
    """Paired ``queue_depth``/``inflight`` gauges for one bounded queue.

    The service layer's two load signals as one handle: how many jobs
    are waiting (``<prefix>.queue_depth``) and how many are executing
    (``<prefix>.inflight``). Updates go through :meth:`Gauge.add` —
    the queue is fed from the submitting thread and drained by workers,
    so the read-modify-write must be atomic; construct via
    :func:`queue_gauges`, which returns ``None`` when observability is
    off (the zero-cost disabled path).
    """

    __slots__ = ("depth", "inflight")

    def __init__(self, registry: "MetricsRegistry", prefix: str) -> None:
        self.depth = registry.gauge(f"{prefix}.queue_depth")
        self.inflight = registry.gauge(f"{prefix}.inflight")

    def enqueued(self) -> None:
        self.depth.add(1)

    def dequeued(self) -> None:
        """A queued item left without running (rejected late / cancelled)."""
        self.depth.add(-1)

    def started(self) -> None:
        self.depth.add(-1)
        self.inflight.add(1)

    def finished(self) -> None:
        self.inflight.add(-1)


class JobTimer:
    """Context manager timing one job: histogram + accumulated phase.

    Records the elapsed wall time into the ``<name>.seconds`` histogram
    (count/sum/min/max/mean across jobs of that name) and accumulates
    it into the ``<name>`` phase total, so both the distribution and
    the aggregate land in manifests without hand-rolled timing code.
    Construct via :func:`job_timer`, which returns ``None`` when
    observability is off.
    """

    __slots__ = ("_registry", "_name", "_start")

    def __init__(self, registry: "MetricsRegistry", name: str) -> None:
        self._registry = registry
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "JobTimer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        elapsed = time.perf_counter() - self._start
        self._registry.histogram(f"{self._name}.seconds").observe(elapsed)
        self._registry.add_phase_time(self._name, elapsed)


class _PhaseScope:
    """Context manager recording wall time for one phase entry."""

    __slots__ = ("_registry", "_name", "_start")

    def __init__(self, registry: "MetricsRegistry", name: str) -> None:
        self._registry = registry
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "_PhaseScope":
        self._start = time.perf_counter()
        self._registry.event("phase.start", phase=self._name)
        return self

    def __exit__(self, *exc_info: object) -> None:
        elapsed = time.perf_counter() - self._start
        self._registry.add_phase_time(self._name, elapsed)
        self._registry.event("phase.end", phase=self._name, seconds=round(elapsed, 6))


class MetricsRegistry:
    """Named counters/gauges/histograms plus per-phase wall-clock timers.

    Get-or-create and phase accumulation are guarded by ``_lock`` — the
    scheduler's worker threads and the service's event loop both mint
    handles by name, and an unguarded ``dict.get``/store pair can hand
    two racing callers two different handles for the same name (one of
    which then silently drops every update).
    """

    __slots__ = ("sink", "_counters", "_gauges", "_histograms", "_phases",
                 "_started_at", "_lock")

    def __init__(self, sink: Optional[EventSink] = None) -> None:
        self.sink = sink
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._phases: Dict[str, float] = {}
        self._started_at = time.time()
        self._lock = threading.Lock()

    # -- handles ------------------------------------------------------------

    def counter(self, name: str) -> Counter:
        with self._lock:
            handle = self._counters.get(name)
            if handle is None:
                self._counters[name] = handle = Counter()
        return handle

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            handle = self._gauges.get(name)
            if handle is None:
                self._gauges[name] = handle = Gauge()
        return handle

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            handle = self._histograms.get(name)
            if handle is None:
                self._histograms[name] = handle = Histogram()
        return handle

    # -- phases -------------------------------------------------------------

    def phase(self, name: str) -> _PhaseScope:
        """Context manager accumulating wall time under ``name``."""
        return _PhaseScope(self, name)

    def add_phase_time(self, name: str, seconds: float) -> None:
        """Record externally measured wall time (e.g. bench timings)."""
        with self._lock:
            self._phases[name] = self._phases.get(name, 0.0) + seconds

    @property
    def phases(self) -> Dict[str, float]:
        with self._lock:
            return dict(self._phases)

    # -- events -------------------------------------------------------------

    def event(self, event_type: str, **fields: object) -> None:
        """Emit a structured event to the sink; no-op without a sink."""
        sink = self.sink
        if sink is None:
            return
        record: Dict[str, object] = {"type": event_type, "t": round(time.time(), 6)}
        record.update(fields)
        sink.emit(record)

    # -- export -------------------------------------------------------------

    def snapshot(self) -> dict:
        """All registry values as plain JSON-serializable dicts."""
        with self._lock:
            counters = sorted(self._counters.items())
            gauges = sorted(self._gauges.items())
            histograms = sorted(self._histograms.items())
            phases = sorted(self._phases.items())
        return {
            "counters": {name: c.value for name, c in counters},
            "gauges": {name: g.value for name, g in gauges},
            "histograms": {name: h.to_dict() for name, h in histograms},
            "phases_seconds": {
                name: round(seconds, 6) for name, seconds in phases
            },
        }

    def counters(self) -> Iterator[tuple]:
        with self._lock:
            pairs = [(name, c.value) for name, c in self._counters.items()]
        return iter(sorted(pairs))

    def close(self) -> None:
        if self.sink is not None:
            self.sink.close()
            self.sink = None


# ---------------------------------------------------------------------------
# Process-wide active registry
# ---------------------------------------------------------------------------

_active: Optional[MetricsRegistry] = None


def active() -> Optional[MetricsRegistry]:
    """The process-wide registry, or ``None`` when observability is off."""
    return _active


def enable(sink: Optional[EventSink] = None) -> MetricsRegistry:
    """Install (and return) a fresh process-wide registry.

    Instrumented objects capture the active registry when *constructed*,
    so enable observability before building the simulation stack.
    """
    global _active
    _active = MetricsRegistry(sink)
    return _active


def disable() -> None:
    """Tear down the process-wide registry (closing any event sink)."""
    global _active
    if _active is not None:
        _active.close()
    _active = None


def queue_gauges(prefix: str) -> Optional[QueueGauges]:
    """A :class:`QueueGauges` pair on the active registry, or ``None``.

    The ``None`` return is the whole disabled path — call sites keep
    the repo-standard single ``is None`` test and pay nothing when
    observability is off.
    """
    registry = _active
    return QueueGauges(registry, prefix) if registry is not None else None


def job_timer(name: str) -> Optional[JobTimer]:
    """A :class:`JobTimer` on the active registry, or ``None`` when off."""
    registry = _active
    return JobTimer(registry, name) if registry is not None else None


class _NullScope:
    """No-op context manager: the disabled path of :func:`phase`."""

    __slots__ = ()

    def __enter__(self) -> "_NullScope":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_SCOPE = _NullScope()


def phase(name: str):
    """A phase timer scope on the active registry; no-op scope when off.

    The replay drivers wrap their injection and drain stages in these so
    figure wall time can be attributed per phase. Timing never alters
    statistics, and the disabled path is one shared no-op object.
    """
    registry = _active
    if registry is not None:
        return registry.phase(name)
    return _NULL_SCOPE
