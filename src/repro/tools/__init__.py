"""Command-line tools: the boxes of the paper's Fig. 1.

* ``python -m repro.tools.trace`` — the *Trace Generator*: create,
  inspect and convert trace files.
* ``python -m repro.tools.profile`` — the *Model Generator* (and its
  academia-side counterpart): build profiles from traces, inspect them,
  synthesize traces from them.
* ``python -m repro.tools.soc`` — multi-device SoC runs from profiles.

:func:`positive_int` is the argparse type of their count flags, shared
with ``python -m repro.eval``; :func:`run_command` is the error
boundary every one of these CLIs runs its command under.
"""

import argparse
import os
import sys
from typing import Callable

from ..core.errors import CorruptArtifactError
from ..core.tracefile import UnknownTraceSuffixError


def positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def run_command(prog: str, command: Callable[..., int], *args) -> int:
    """Run ``command(*args)`` and return its exit status.

    An unreadable, unwritable, missing or corrupt file, or a trace path
    whose suffix names no trace format, ends the command with
    ``prog: error: <path>: <reason>`` on stderr and status 1, instead of
    a traceback. A reader that closes the pipe early
    (``... | head -2``) ends it quietly with status 1 instead of a
    ``BrokenPipeError`` traceback. As in the Python docs' SIGPIPE
    recipe, stdout is then pointed at devnull so that the interpreter's
    final flush cannot raise again.
    """
    try:
        status = command(*args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except (OSError, CorruptArtifactError, UnknownTraceSuffixError) as error:
        if isinstance(error, OSError) and error.filename is not None:
            message = f"{error.filename}: {error.strerror}"
        else:
            message = str(error)
        print(f"{prog}: error: {message}", file=sys.stderr)
        return 1
