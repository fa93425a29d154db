"""Run manifests: one JSON document describing a whole run.

A manifest captures everything needed to interpret (and re-run) a run:
host information, the command and scale, the seeds, per-phase wall
times and every registry value. ``python -m repro.eval ...
--metrics-out run.json`` writes one.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path
from typing import Optional, Union

from ..core.atomic import atomic_write_text
from .registry import MetricsRegistry

MANIFEST_SCHEMA = 1


def host_info() -> dict:
    """Host facts that affect timings and parallel behaviour."""
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
    }


def build_manifest(
    registry: MetricsRegistry,
    command: Optional[str] = None,
    scale: Optional[dict] = None,
    seeds: Optional[dict] = None,
    extra: Optional[dict] = None,
) -> dict:
    """Assemble a manifest dict from a registry plus run context."""
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "kind": "mocktails-run-manifest",
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "host": host_info(),
        "command": command,
        "scale": scale or {},
        "seeds": seeds or {},
        "phases_seconds": {
            name: round(seconds, 6) for name, seconds in sorted(registry.phases.items())
        },
        "metrics": registry.snapshot(),
    }
    if extra:
        manifest.update(extra)
    return manifest


def write_manifest(path: Union[str, Path], manifest: dict) -> Path:
    """Write a manifest as stable, human-diffable JSON; returns the path.

    The write is atomic (temp file + ``os.replace``), so a run killed
    mid-write never leaves a truncated manifest behind.
    """
    path = Path(path)
    atomic_write_text(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path
