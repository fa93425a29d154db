"""Pinned outputs of every experiment the ``repro.eval`` CLI runs.

Each case runs one experiment at :data:`REQUESTS` requests per trace
(seed 0, the runners' default) and reduces it to the JSON that
``python -m repro.eval quick <name> --requests 1000 --no-cache
--json-out PATH`` writes, with every float rounded to
:data:`FLOAT_DIGITS` significant digits. ``figure_goldens.json`` holds
the sha256 of that text.

The rounding keeps the pins independent of the Python version: from
3.12 on, ``sum()`` of floats is compensated, so a mean of many percent
errors can differ from 3.9-3.11 in its last bit. Twelve digits sit far
above that noise and far below any difference a figure would show.

All cases run in one process, sharing the runners' in-process caches
the way ``python -m repro.eval all`` does.

Regenerate the goldens only for a change that is *meant* to alter a
figure::

    PYTHONPATH=src python -m tests.eval.figure_cases > tests/eval/figure_goldens.json
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict

from repro.eval.__main__ import EXPERIMENTS, _json_sanitize

GOLDENS_PATH = Path(__file__).with_name("figure_goldens.json")

#: Requests per trace for every experiment.
REQUESTS = 1_000

#: Significant digits kept of every float before hashing.
FLOAT_DIGITS = 12

#: Every experiment the CLI lists.
CASES = tuple(sorted(EXPERIMENTS))


def _rounded(value):
    if isinstance(value, float):
        return float(f"{value:.{FLOAT_DIGITS}g}")
    if isinstance(value, dict):
        return {key: _rounded(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_rounded(item) for item in value]
    return value


def payload(name: str) -> str:
    """The ``--json-out`` text of a one-experiment run of ``name``, floats rounded."""
    runner, _ = EXPERIMENTS[name]
    result = _rounded(_json_sanitize({name: runner(REQUESTS)}))
    return json.dumps(result, indent=2, sort_keys=True) + "\n"


def digest(name: str) -> str:
    return hashlib.sha256(payload(name).encode()).hexdigest()


def load_goldens() -> Dict[str, str]:
    return json.loads(GOLDENS_PATH.read_text())["cases"]


def main() -> int:
    goldens = {name: digest(name) for name in CASES}
    json.dump({"requests": REQUESTS, "seed": 0, "cases": goldens}, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
