"""Every pinned baseline case, recomputed and compared with its golden.

The goldens pin the HRD and STM baselines bit for bit (see
``golden_cases.py``): a faster fit or synthesis loop must reproduce
every fitted count, every draw and every profile byte.
"""

import pytest

from . import golden_cases

GOLDENS = golden_cases.load_goldens()


def test_every_case_is_pinned():
    assert sorted(GOLDENS) == sorted(golden_cases.CASES)


@pytest.mark.parametrize("case", sorted(golden_cases.CASES))
def test_case_matches_golden(case):
    assert golden_cases.digest(golden_cases.CASES[case]()) == GOLDENS[case]

