"""Command-line tools: the boxes of the paper's Fig. 1.

* ``python -m repro.tools.trace`` — the *Trace Generator*: create,
  inspect and convert trace files.
* ``python -m repro.tools.profile`` — the *Model Generator* (and its
  academia-side counterpart): build profiles from traces, inspect them,
  synthesize traces from them.
* ``python -m repro.tools.soc`` — multi-device SoC runs from profiles.

:func:`positive_int` is the argparse type of their count flags, shared
with ``python -m repro.eval``.
"""

import argparse


def positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value
