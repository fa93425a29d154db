"""``repro.engine`` — the shared job engine.

The repo's expensive work decomposes into deterministic *jobs*: frozen
dataclasses whose fields completely describe one computation (one
DRAM-comparison trio, one SPEC synthetic set, one sampling report).
Before this package they lived inside ``repro.eval.parallel``, fused to
the experiment runners; ``repro.engine`` is that job model as a layer
of its own:

* :mod:`repro.engine.jobs` — the job dataclasses, the type registry
  (executor / cache installer / cached-check per type) and the
  dispatch helpers (:func:`execute_job`, :func:`install`,
  :func:`is_cached`);
* :mod:`repro.engine.pool` — the repo-standard process pool
  (:func:`make_pool`, :func:`default_processes`);
* :mod:`repro.engine.prewarm` — batch fan-out with cross-run
  memoization and the per-key lock protocol (what ``--jobs N`` runs).

Canonical cache keys come from :func:`repro.store.memo.cache_key`, so
the prewarm lock protocol and the persistent store agree on what "the
same job" means.
"""

from .jobs import (
    DramJob,
    Job,
    SampleJob,
    SizeJob,
    SpecJob,
    execute_job,
    install,
    is_cached,
    register_job_type,
)
from .pool import default_processes, make_pool
from .prewarm import prewarm

__all__ = [
    "DramJob",
    "Job",
    "SampleJob",
    "SizeJob",
    "SpecJob",
    "default_processes",
    "execute_job",
    "install",
    "is_cached",
    "make_pool",
    "prewarm",
    "register_job_type",
]
