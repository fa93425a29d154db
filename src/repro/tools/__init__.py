"""Command-line tools: the boxes of the paper's Fig. 1.

* ``python -m repro.tools.trace`` — the *Trace Generator*: create,
  inspect and convert trace files.
* ``python -m repro.tools.profile`` — the *Model Generator* (and its
  academia-side counterpart): build profiles from traces, inspect them,
  synthesize traces from them.
* ``python -m repro.tools.soc`` — multi-device SoC runs from profiles.

:func:`positive_int` is the argparse type of their count flags, shared
with ``python -m repro.eval``; :func:`run_command` runs their parsed
subcommands.
"""

import argparse
import os
import sys


def positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def run_command(args: argparse.Namespace) -> int:
    """Run a parsed subcommand (``args.func``) and return its exit status.

    A reader that closes the pipe early (``... | head -2``) ends the
    command quietly with status 1 instead of a ``BrokenPipeError``
    traceback. As in the Python docs' SIGPIPE recipe, stdout is then
    pointed at devnull so that the interpreter's final flush cannot
    raise again.
    """
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
