"""Simulation drivers: trace / profile -> crossbar -> memory system.

Mirrors the paper's validation platform (Sec. IV-A): a traffic generator
feeding main memory through a crossbar. Two entry points:

* :func:`simulate_trace` — replay a trace or any time-ordered request
  iterable (the *baseline* runs, and Option A synthesis: pass it
  :func:`~repro.core.synthesis.synthesize_stream` to replay a synthetic
  stream without materializing it);
* :func:`simulate_profile` — coupled Option B: synthesis pulls requests
  from a :class:`FeedbackSynthesizer` and feeds backpressure delays back
  into its timestamps.

All of them drive one memory-system engine
(:class:`~repro.dram.batched.MemoryEngine`, behind
:class:`~repro.dram.memory_system.MemorySystem` and
:class:`~repro.interconnect.crossbar.Crossbar`). Open-loop replay hands
it column blocks (``Crossbar.feed``); Option B hands it one request at
a time (``Crossbar.send``), because each request's timestamp depends on
the backpressure the previous one observed. Both reach the same FR-FCFS
``service`` routine, so the entry point never changes a statistic.
Every configuration — refresh, ChargeCache, either page policy, event
sinks, sanitize mode, with or without numpy — runs the same engine;
sanitize mode only wraps the input stream in an invariant checker.

Replay wall time is attributed to ``replay.crossbar`` (injection) and
``replay.dram`` (final drain) phase timers when observability is on;
the attribution is wall-clock only and never changes statistics.
"""

from __future__ import annotations

import random
from itertools import islice
from typing import Callable, Iterable, Optional, Union

from .. import obs
from ..core.columnar import ColumnarTrace
from ..core.profile import Profile
from ..core.request import MemoryRequest
from ..core.synthesis import FeedbackSynthesizer
from ..dram.config import MemoryConfig
from ..dram.memory_system import MemorySystem
from ..dram.stats import MemorySystemStats
from ..interconnect.crossbar import Crossbar, CrossbarConfig
from ..lint import sanitize as _sanitize

#: Requests per column block when batching a lazy request stream. Small
#: blocks keep the decoded burst columns (the engine's only per-block
#: memory) from adding to peak RSS; the per-block numpy overhead is noise.
_BATCH_CHUNK = 1024


def _checker(sanitize: Optional[bool], label: str):
    """Resolve the per-call flag against the process-wide sanitize mode.

    ``None`` follows :func:`repro.lint.sanitize.active`; ``True`` forces
    a checker on; ``False`` forces it off. The checker only observes the
    stream, so results are bit-identical with or without it.
    """
    if sanitize is False:
        return None
    if sanitize is None and not _sanitize.active():
        return None
    checker = _sanitize.make_checker(label)
    return checker if checker is not None else _sanitize.TraceInvariantChecker(label=label)


def _feed_lazy(crossbar: Crossbar, requests: Iterable[MemoryRequest]) -> None:
    """Feed a lazy request stream to the engine, chunk by chunk.

    A chunk whose values do not fit the column store (columns are
    bounded, request objects are not) is sent one request at a time.
    """
    iterator = iter(requests)
    chunk = list(islice(iterator, _BATCH_CHUNK))
    while chunk:
        try:
            block = ColumnarTrace.from_trace(chunk)
        except (ValueError, OverflowError):
            for request in chunk:
                crossbar.send(request)
        else:
            crossbar.feed(block)
        chunk = list(islice(iterator, _BATCH_CHUNK))


def _replay(
    drive: Callable[[Crossbar], None],
    config: Optional[MemoryConfig],
    crossbar_config: Optional[CrossbarConfig],
) -> MemorySystemStats:
    memory = MemorySystem(config)
    crossbar = Crossbar(memory, crossbar_config)
    with obs.phase("replay.crossbar"):
        drive(crossbar)
    with obs.phase("replay.dram"):
        memory.drain()
    return memory.stats


def simulate_trace(
    trace: Union[ColumnarTrace, Iterable[MemoryRequest]],
    config: Optional[MemoryConfig] = None,
    crossbar_config: Optional[CrossbarConfig] = None,
    sanitize: Optional[bool] = None,
) -> MemorySystemStats:
    """Replay a time-ordered request stream through crossbar + memory.

    Accepts a :class:`~repro.core.trace.Trace`, a
    :class:`~repro.core.columnar.ColumnarTrace`, or any iterable of
    time-ordered requests — including a lazy generator, so synthetic
    streams can be replayed without materializing the full trace.

    ``sanitize=True`` (or process-wide
    :func:`repro.lint.sanitize.enable`) validates every request against
    the trace invariants — monotonic timestamps, legal addresses and
    operations — raising
    :class:`~repro.lint.sanitize.InvariantViolation` on the first break.
    """
    checker = _checker(sanitize, "simulate_trace")
    if checker is not None:
        requests = trace.iter_requests() if isinstance(trace, ColumnarTrace) else trace
        trace = checker.watch(requests)
    if isinstance(trace, ColumnarTrace):
        return _replay(lambda crossbar: crossbar.feed(trace), config, crossbar_config)
    return _replay(lambda crossbar: _feed_lazy(crossbar, trace), config, crossbar_config)


def simulate_profile(
    profile: Profile,
    config: Optional[MemoryConfig] = None,
    crossbar_config: Optional[CrossbarConfig] = None,
    seed: Union[int, random.Random, None] = 0,
    strict: bool = True,
    sanitize: Optional[bool] = None,
) -> MemorySystemStats:
    """Coupled synthesis (Option B): backpressure feeds back into timing.

    One request at a time: each request's timestamp depends on the delay
    the previous one observed, so the stream cannot be batched ahead of
    the simulator.
    """
    synthesizer = FeedbackSynthesizer(profile, seed=seed, strict=strict)
    checker = _checker(sanitize, "simulate_profile")

    def drive(crossbar: Crossbar) -> None:
        send = crossbar.send
        while True:
            request = synthesizer.next_request()
            if request is None:
                break
            if checker is not None:
                checker.check(request)
            delay = send(request)
            if delay > 0:
                synthesizer.report_backpressure(delay)

    return _replay(drive, config, crossbar_config)
