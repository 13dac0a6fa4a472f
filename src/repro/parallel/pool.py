"""The process-level fan-out pool.

:class:`SimPool` executes independent :class:`~repro.parallel.RunSpec`
runs across the sweep supervisor's long-lived ``spawn`` workers (fresh
interpreters, no inherited state, parked between calls and reused by the
next; see :mod:`repro.sweep.supervisor`) and
memoizes them through an optional :class:`~repro.parallel.ResultCache`.

Determinism contract:

* every run is a pure function of its spec (seeded trace, seeded faults,
  no wall-clock reads in the simulator), so a worker process computes the
  byte-identical result the caller would have computed serially;
* results are returned **in spec order**, never completion order;
* every result — fresh, pooled, or cached — passes through the same
  exact JSON round trip (:mod:`repro.metrics.serialize`, the codec
  checkpoints use), so a warm-cache result is indistinguishable from a cold one.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from repro.experiments.runner import RunResult
from repro.metrics.serialize import run_result_from_dict, run_result_to_dict
from repro.parallel.cache import CacheStats, ResultCache
from repro.parallel.spec import RunSpec

if TYPE_CHECKING:  # import cycle: repro.sweep builds on repro.parallel
    from repro.sweep.config import SupervisorConfig

#: Environment override consulted by :func:`default_jobs`.
JOBS_ENV = "REPRO_JOBS"

#: Escape hatch consulted by :func:`clamp_jobs`: keep the spawn pool
#: even on a single-CPU host (CI chaos tests need the process boundary
#: to inject crashes into).
FORCE_SPAWN_ENV = "REPRO_SWEEP_FORCE_SPAWN"


def clamp_jobs(requested: int) -> int:
    """The single home of the single-CPU degradation rule.

    A single-CPU host collapses any multi-worker request to 1 — spawn
    overhead buys nothing there — unless ``REPRO_SWEEP_FORCE_SPAWN``
    insists on the process boundary.  Every entry point that turns a
    *requested* worker count into an *actual* one (``default_jobs``,
    :func:`repro.sweep.run_sweep`, ``compare --jobs``) routes through
    here so the paths cannot disagree.  Programmatic
    ``SimPool(jobs=...)`` construction is deliberately not clamped.
    """
    if requested <= 1:
        return 1
    if os.environ.get(FORCE_SPAWN_ENV):
        return requested
    if (os.cpu_count() or 1) <= 1:
        return 1
    return requested


def default_jobs() -> int:
    """Worker count from ``REPRO_JOBS``; 1 (serial) when unset.

    An env-configured ``REPRO_JOBS=8`` is still subject to
    :func:`clamp_jobs`, so a single-CPU host gets 1 unless
    ``REPRO_SWEEP_FORCE_SPAWN`` overrides.
    """
    value = os.environ.get(JOBS_ENV)
    if not value:
        return 1
    return clamp_jobs(max(1, int(value)))


def serial_map(specs: Sequence[RunSpec]) -> List[RunResult]:
    """Execute specs one after another in this process (no round trip).

    The executor the refactored drivers default to — byte-identical to
    the historical hard-coded serial loops.
    """
    return [spec.execute() for spec in specs]


class SimPool:
    """Fans independent runs out over processes, through the cache.

    ``jobs=1`` executes in-process (no spawn overhead) but still takes
    the serialization round trip, keeping all three paths — serial,
    parallel, cached — structurally identical.

    With ``jobs > 1`` every batch runs on the fault-tolerant worker
    supervisor's workers (:func:`repro.sweep.run_supervised`: persistent
    workers that the next :meth:`map` in this process reuses, bounded
    retries, crash isolation, and — with a ``supervisor``
    :class:`~repro.sweep.SupervisorConfig` — per-run timeouts and
    heartbeat liveness), even when one spec is left after the cache;
    ``supervisor=None`` means the default config.
    :meth:`map` promises a result for every spec, so a spec the
    supervisor quarantines raises :class:`RuntimeError` — callers that
    want partial results should use :func:`repro.sweep.run_sweep`
    instead.
    """

    def __init__(
        self,
        jobs: int = 1,
        *,
        cache: Optional[ResultCache] = None,
        supervisor: Optional["SupervisorConfig"] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1: {jobs}")
        self.jobs = jobs
        self.cache = cache
        self.supervisor = supervisor

    @property
    def stats(self) -> CacheStats:
        """The attached cache's counters (all zero when uncached)."""
        return self.cache.stats if self.cache is not None else CacheStats()

    def map(self, specs: Sequence[RunSpec]) -> List[RunResult]:
        """Execute every spec; results align with ``specs`` by index."""
        results: List[Optional[RunResult]] = [None] * len(specs)
        pending: List[Tuple[int, RunSpec, Optional[str]]] = []
        for index, spec in enumerate(specs):
            if self.cache is not None:
                key = self.cache.key_for(spec)
                hit = self.cache.load(key)
                if hit is not None:
                    results[index] = hit
                    continue
                pending.append((index, spec, key))
            else:
                pending.append((index, spec, None))

        if pending:
            payloads = self._execute([spec for _, spec, _ in pending])
            for (index, _, key), payload in zip(pending, payloads):
                if self.cache is not None and key is not None:
                    self.cache.store(key, payload)
                results[index] = run_result_from_dict(payload)

        return [result for result in results if result is not None]

    def _execute(self, todo: List[RunSpec]) -> List[Dict[str, Any]]:
        """Serialized results of ``todo``: in-process for ``jobs=1``,
        otherwise under the supervisor, however few specs missed."""
        if self.jobs == 1:
            return [run_result_to_dict(spec.execute()) for spec in todo]
        # Lazy import: repro.sweep imports repro.parallel at module
        # scope, so the reverse edge must stay function-local.
        from repro.sweep.supervisor import OUTCOME_OK, run_supervised

        outcomes = run_supervised(todo, jobs=self.jobs, config=self.supervisor)
        payloads: List[Dict[str, Any]] = []
        for outcome in outcomes:
            if outcome.status != OUTCOME_OK or outcome.payload is None:
                raise RuntimeError(
                    f"run {outcome.label!r} quarantined after "
                    f"{outcome.attempts} attempt(s): {outcome.last_failure}"
                )
            payloads.append(outcome.payload)
        return payloads
