"""The job model: registry dispatch and cache installation."""

import dataclasses

import pytest

from repro.engine import DramJob, execute_job, install, is_cached
from repro.eval import comparison

REQUESTS = 400


def test_jobs_are_frozen_and_hashable():
    job = DramJob("trex1", REQUESTS)
    with pytest.raises(dataclasses.FrozenInstanceError):
        job.name = "other"
    assert len({job, DramJob("trex1", REQUESTS)}) == 1


def test_install_round_trip_marks_cached():
    comparison.clear_cache()
    job = DramJob("trex1", REQUESTS)
    assert not is_cached(job)
    job, payload = execute_job(job)
    comparison.clear_cache()
    install(job, payload)
    assert is_cached(job)
    # The installed payload is exactly what the runner now reads.
    assert comparison.dram_comparison("trex1", REQUESTS) is payload
    comparison.clear_cache()


def test_unregistered_job_type_is_rejected():
    @dataclasses.dataclass(frozen=True)
    class Unregistered:
        name: str

    with pytest.raises(TypeError, match="unknown job type"):
        execute_job(Unregistered("x"))
