"""Every pinned replay case, one request at a time through ``Crossbar.send``.

The goldens were recorded with the original per-object scalar
controller; the engine must reproduce them bit for bit (see
``golden_cases.py``). ``test_batched.py`` checks the column-block entry
points against the same goldens.
"""

import pytest

from . import golden_cases

GOLDENS = golden_cases.load_goldens()


def test_every_case_is_pinned():
    assert sorted(GOLDENS) == sorted(golden_cases.CASES)


@pytest.mark.parametrize("case", sorted(golden_cases.CASES))
def test_case_matches_golden(case):
    assert golden_cases.digest(golden_cases.CASES[case]()) == GOLDENS[case]
