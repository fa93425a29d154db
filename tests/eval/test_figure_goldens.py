"""Every experiment's ``--json-out`` bytes, pinned by sha256.

The cases share one process and its in-process result caches, like
``python -m repro.eval all``; see ``figure_cases.py`` for the payload
and how to regenerate the pins.
"""

import pytest

from . import figure_cases

GOLDENS = figure_cases.load_goldens()


def test_every_experiment_is_pinned():
    assert sorted(GOLDENS) == sorted(figure_cases.CASES)


@pytest.mark.parametrize("name", figure_cases.CASES)
def test_figure_matches_golden(name):
    assert figure_cases.digest(name) == GOLDENS[name]
