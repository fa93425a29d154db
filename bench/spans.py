"""Outside-in layer spans for the benchmark's traced runs.

The tracer wraps the public layer functions of ``repro`` where they are
bound — the defining module and every loaded ``repro`` module that
imported the name — and restores them on :meth:`Tracer.stop`. No file
under ``src/`` knows about it. Each wrapped call records a span (name,
start, end, parent, item) in memory; self time is the span's duration
minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import weakref
from collections import Counter
from typing import Callable, Dict, List, Optional

from repro.baselines.hrd import HRDModel
from repro.baselines.stm import stm_leaf_factory
from repro.core.columnar import resolve_backend
from repro.dram.batched import batched_replay_supported

#: Every layer a span can be attributed to, in pipeline order.
LAYERS = (
    "workloads.generate",
    "profile.build.mcc",
    "profile.build.stm",
    "synthesize",
    "replay.batched",
    "replay.scalar",
    "replay.feedback",
    "baselines.hrd.fit",
    "baselines.hrd.synthesize",
    "cache.sim",
)
#: Layers with a work count beside ``calls``, and the count's name.
WORK_COUNTS = {
    "synthesize": "requests",
    "replay.batched": "requests",
    "replay.scalar": "requests",
    "cache.sim": "accesses",
}
REPLAY_LAYERS = ("replay.batched", "replay.scalar", "replay.feedback")


class Span:
    __slots__ = ("name", "start", "end", "parent", "item")

    def __init__(self, name: str, start: float, parent: int, item: Optional[str]):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.item = item

    def to_dict(self) -> dict:
        return {key: getattr(self, key) for key in self.__slots__}


def _profile_layer(args, kwargs) -> str:
    factory = kwargs.get("leaf_factory", args[2] if len(args) > 2 else None)
    return "profile.build.stm" if factory is stm_leaf_factory else "profile.build.mcc"


def _replay_layer(args, kwargs) -> str:
    config = kwargs.get("config", args[1] if len(args) > 1 else None)
    crossbar = kwargs.get("crossbar_config", args[2] if len(args) > 2 else None)
    backend = kwargs.get("backend")
    if resolve_backend(backend) == "columnar" and batched_replay_supported(config, crossbar):
        return "replay.batched"
    return "replay.scalar"


class Tracer:
    """Records layer spans while started; an observer only."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.item: Optional[str] = None
        self._stack: List[int] = []
        self._undo: List[tuple] = []
        self._replay_inputs: List[tuple] = []
        self.replay_calls = 0

    # -- recording -------------------------------------------------------

    def _wrap(self, original: Callable, layer, count=None, replay_input=None) -> Callable:
        """``layer`` is a name or a function of the call's arguments."""
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            name = layer(args, kwargs) if callable(layer) else layer
            if replay_input is not None:
                self._note_replay_input(*replay_input(args, kwargs))
            index = len(spans)
            spans.append(Span(name, 0.0, stack[-1] if stack else -1, self.item))
            stack.append(index)
            spans[index].start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                spans[index].end = time.perf_counter()
                stack.pop()
            self.counts[name] += 1
            if count is not None:
                self.counts[f"{name}.{WORK_COUNTS[name]}"] += count(args, result)
            return result

        return traced

    def _note_replay_input(self, source, config) -> None:
        """Count a replay call and whether its (input object, config) is new."""
        self.replay_calls += 1
        for ref, seen_config in self._replay_inputs:
            if ref() is source and seen_config == config:
                return
        self._replay_inputs.append((weakref.ref(source), config))

    # -- patching --------------------------------------------------------

    def _patch_function(self, module_name: str, attr: str, wrapped_by) -> None:
        original = getattr(importlib.import_module(module_name), attr)
        wrapped = wrapped_by(original)
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "repro" and getattr(module, attr, None) is original:
                setattr(module, attr, wrapped)
                self._undo.append((module, attr, original))

    def _patch_method(self, cls, attr: str, wrapped_by) -> None:
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            setattr(cls, attr, classmethod(wrapped_by(original.__func__)))
        else:
            setattr(cls, attr, wrapped_by(original))
        self._undo.append((cls, attr, original))

    def start(self) -> None:
        def make_generator(original):
            @functools.wraps(original)
            def traced(*args, **kwargs):
                generator = original(*args, **kwargs)
                generator.generate = self._wrap(generator.generate, "workloads.generate")
                return generator

            return traced

        def config_of(args, kwargs):
            return args[0], kwargs.get("config", args[1] if len(args) > 1 else None)

        self._patch_function("repro.workloads.registry", "make_generator", make_generator)
        self._patch_function(
            "repro.core.profiler", "build_profile", lambda f: self._wrap(f, _profile_layer)
        )
        self._patch_function(
            "repro.core.synthesis",
            "synthesize",
            lambda f: self._wrap(f, "synthesize", lambda args, result: len(result)),
        )
        self._patch_function(
            "repro.sim.driver",
            "simulate_trace",
            lambda f: self._wrap(f, _replay_layer, lambda args, result: len(args[0]), config_of),
        )
        self._patch_function(
            "repro.sim.driver",
            "simulate_profile",
            lambda f: self._wrap(f, "replay.feedback", replay_input=config_of),
        )
        self._patch_function(
            "repro.sim.cache_driver",
            "run_cache_trace",
            lambda f: self._wrap(f, "cache.sim", lambda args, result: result.l1.accesses),
        )
        self._patch_method(HRDModel, "fit", lambda f: self._wrap(f, "baselines.hrd.fit"))
        self._patch_method(
            HRDModel, "synthesize", lambda f: self._wrap(f, "baselines.hrd.synthesize")
        )

    def stop(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reporting -------------------------------------------------------

    def self_times(self) -> List[float]:
        """Each span's duration minus its direct children's durations."""
        own = [span.end - span.start for span in self.spans]
        for span in self.spans:
            if span.parent >= 0:
                own[span.parent] -= span.end - span.start
        return own

    def layer_metrics(self, wall: float) -> Dict[str, float]:
        """Per-layer self time, calls, work and share of the traced wall."""
        self_s: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        for span, own in zip(self.spans, self.self_times()):
            self_s[span.name] += own
        metrics: Dict[str, float] = {}
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = self_s[layer]
            metrics[f"{layer}.share_pct"] = 100.0 * self_s[layer] / wall
            metrics[f"{layer}.calls"] = self.counts[layer]
            if layer in WORK_COUNTS:
                metrics[f"{layer}.{WORK_COUNTS[layer]}"] = self.counts[
                    f"{layer}.{WORK_COUNTS[layer]}"
                ]
        replay = sum(self_s[layer] for layer in REPLAY_LAYERS)
        metrics["replay.self_s"] = replay
        metrics["replay.share_pct"] = 100.0 * replay / wall
        batched = self_s["replay.batched"]
        metrics["replay.batched.rps"] = (
            metrics["replay.batched.requests"] / batched if batched else 0.0
        )
        metrics["replay.calls"] = self.replay_calls
        metrics["replay.distinct_input_ratio"] = (
            len(self._replay_inputs) / self.replay_calls if self.replay_calls else 0.0
        )
        attributed = sum(self_s.values())
        metrics["eval.self_s"] = wall - attributed
        metrics["eval.share_pct"] = 100.0 * (wall - attributed) / wall
        return metrics
