"""Parallel experiment orchestration with a content-addressed result cache.

The paper's evaluation is ~20 figure scripts plus comparison/MTBF sweeps,
each a bag of *independent, deterministic* (scenario, scheduler, seed)
runs.  This package gives every multi-run entry point two order-of-
magnitude levers on top of the single-run hot-path work:

* :class:`SimPool` — process-level fan-out, byte-identical to serial
  execution and ordered by spec, not completion.  ``jobs=1`` runs
  in-process; with ``jobs > 1`` every batch runs under the sweep
  supervisor (:func:`repro.sweep.run_supervised`), however few specs
  missed the cache;
* :class:`ResultCache` — a content-addressed on-disk store keyed by
  (:class:`RunSpec`, code fingerprint), so unchanged inputs skip the
  simulation entirely on re-runs.

Every run, serial, pooled, supervised or resumed, is built by
:meth:`RunSpec.build_runner`, which calls ``Scenario.build_runner``.

Quickstart::

    from repro.experiments.scenarios import run_comparison, small_scenario
    from repro.parallel import ResultCache, SimPool

    pool = SimPool(jobs=4, cache=ResultCache(".repro-cache"))
    results = run_comparison(small_scenario(), executor=pool.map)
    print(pool.stats.render())
"""

from repro.parallel.cache import (
    CACHE_DIR_ENV,
    DEFAULT_CACHE_DIR,
    NO_CACHE_ENV,
    CacheStats,
    ResultCache,
    code_fingerprint,
    default_cache,
    spec_key,
)
from repro.parallel.pool import (
    FORCE_SPAWN_ENV,
    JOBS_ENV,
    SimPool,
    clamp_jobs,
    default_jobs,
    serial_map,
)
from repro.parallel.spec import (
    SCHEDULER_NAMES,
    RunSpec,
    build_scheduler,
)

__all__ = [
    "CACHE_DIR_ENV",
    "DEFAULT_CACHE_DIR",
    "FORCE_SPAWN_ENV",
    "JOBS_ENV",
    "NO_CACHE_ENV",
    "SCHEDULER_NAMES",
    "CacheStats",
    "ResultCache",
    "RunSpec",
    "SimPool",
    "build_scheduler",
    "clamp_jobs",
    "code_fingerprint",
    "default_cache",
    "default_jobs",
    "serial_map",
    "spec_key",
]
