"""Structured event sinks for the observability layer.

Events are flat JSON objects with at least a ``type`` key and a wall
clock ``t``; the JSONL sink streams one object per line so a run can be
tailed live (``tail -f events.jsonl | jq .``) and parsed with nothing
but the standard library.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import IO, List, Optional, Union


class EventSink:
    """Interface: receive structured event dicts."""

    def emit(self, event: dict) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - interface default
        pass

    def __enter__(self) -> "EventSink":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class JsonlEventSink(EventSink):
    """Append events to a JSON-lines file, one flushed line per event.

    Each event is written with a single ``write`` call and flushed
    immediately, so a crashed or killed run keeps every event up to the
    failure point — the whole reason to stream instead of dumping at
    exit. ``emit`` serializes under a lock so threads sharing one sink
    never interleave two lines mid-buffer or drop ``emitted`` updates.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        # Streaming sink: atomicity is meaningless for a tail-able log
        # that must survive a crash mid-run.
        self._handle: Optional[IO[str]] = self.path.open("w", encoding="utf-8")  # lint: ignore[io-atomic-write]
        self.emitted = 0
        self._lock = threading.Lock()

    def emit(self, event: dict) -> None:
        line = json.dumps(event, separators=(",", ":"), default=str) + "\n"
        with self._lock:
            handle = self._handle
            if handle is None:
                raise ValueError(f"{self.path}: sink is closed")
            handle.write(line)
            handle.flush()
            self.emitted += 1

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None


class MemoryEventSink(EventSink):
    """Collect events in a list — for tests and in-process consumers.

    ``list.append`` is atomic under the GIL, so a lock-free sink stays
    correct for concurrent emitters; tests that assert on ordering run
    single-threaded.
    """

    def __init__(self) -> None:
        self.events: List[dict] = []

    def emit(self, event: dict) -> None:
        self.events.append(event)

    def of_type(self, event_type: str) -> List[dict]:
        return [event for event in self.events if event.get("type") == event_type]
