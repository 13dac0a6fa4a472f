"""The adaptive CPU allocator (Sec. V-B).

Responsibilities:

* pick N_start for every arriving DNN training job (category + owner
  history + hints, :mod:`repro.core.nstart`);
* after the job starts, run 90-second profiling steps: measure GPU
  utilization, feed the :class:`~repro.core.tuning.TuningSession`, and
  retune the job's cores through the scheduler context until the session
  settles;
* on completion, write the tuned outcome into the tenant history log so
  the owner's next similar job starts at (or next to) the optimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, Optional

from repro.core.historylog import TenantHistory
from repro.core.nstart import determine_n_start
from repro.core.tuning import DEFAULT_EPSILON, TuningSession
from repro.schedulers.base import SchedulerContext
from repro.sim.engine import Timer
from repro.sim.events import EventHandle
from repro.sim.state import FLOAT, INT, JOB, JOB_ID, NESTED, STR, Built, DictOf, Record
from repro.sim.state import Stateful, Struct
from repro.workload.job import GpuJob

#: Sec. VI-F: "we sample the GPU utilization for each profiling step that
#: lasts 90 seconds".
PROFILING_STEP_S = 90.0

#: Consecutive failure-killed profiling sessions after which the allocator
#: enters degraded mode (stops probing, serves N_start only).
DEFAULT_DEGRADED_AFTER_ABORTS = 3

#: Default length of one degraded-mode episode.
DEFAULT_DEGRADED_COOLDOWN_S = 1800.0

#: The next profiling step of a job's tuning session.
PROFILE_STEP = Timer("profile", JOB_ID)


@dataclass
class _ActiveSession:
    job: GpuJob
    session: TuningSession
    event_handle: Optional[EventHandle] = None


@dataclass
class TuningOutcome:
    """Recorded per job, for Table II and Fig. 14."""

    job_id: str
    model_name: str
    n_start: int
    tuned_cores: int
    profiling_steps: int
    requested_cpus: int


_OUTCOME = Record(
    TuningOutcome, ("job_id", JOB_ID), model_name=STR, n_start=INT,
    tuned_cores=INT, profiling_steps=INT, requested_cpus=INT,
)
#: An active session is written as its tuning state machine alone.
_SESSION = Built(lambda *_: object.__new__(TuningSession))
_ACTIVE = Record(_ActiveSession, ("job", JOB), bare=True, session=_SESSION)


class AdaptiveCpuAllocator(Stateful):
    """Feedback-based per-job CPU allocation."""

    def __init__(
        self,
        *,
        profiling_step_s: float = PROFILING_STEP_S,
        epsilon: float = DEFAULT_EPSILON,
        max_cores_per_job: int = 24,
        history_window: int = 20,
        degraded_after_aborts: int = DEFAULT_DEGRADED_AFTER_ABORTS,
        degraded_cooldown_s: float = DEFAULT_DEGRADED_COOLDOWN_S,
    ) -> None:
        if profiling_step_s <= 0:
            raise ValueError(f"non-positive profiling step: {profiling_step_s}")
        if max_cores_per_job < 1:
            raise ValueError(f"max_cores_per_job must be >= 1: {max_cores_per_job}")
        if degraded_after_aborts < 1:
            raise ValueError(
                f"degraded_after_aborts must be >= 1: {degraded_after_aborts}"
            )
        if degraded_cooldown_s < 0:
            raise ValueError(
                f"negative degraded cooldown: {degraded_cooldown_s}"
            )
        self.profiling_step_s = profiling_step_s
        self.epsilon = epsilon
        self.max_cores_per_job = max_cores_per_job
        self.degraded_after_aborts = degraded_after_aborts
        self.degraded_cooldown_s = degraded_cooldown_s
        self.history = TenantHistory(window=history_window)
        self.outcomes: Dict[str, TuningOutcome] = {}
        self._active: Dict[str, _ActiveSession] = {}
        self._known_cores: Dict[str, int] = {}
        #: Degraded-mode state: consecutive failure-killed sessions, the
        #: sim time until which probing stays suspended, and counters.
        self._failure_aborts = 0
        self._degraded_until = float("-inf")
        self.degraded_entries = 0
        self.sessions_skipped_degraded = 0

    def attach(self, context: SchedulerContext) -> None:
        """Declare the profiling-step timer on the run's context."""
        context.declare_timer(
            PROFILE_STEP,
            partial(self._on_step, context=context),
            requires=lambda _: [(job_id,) for job_id in self._active],
            keep=self._keep_step,
        )

    # ------------------------------------------------------------------ #
    # Placement-time: what cores should this job start with?

    def initial_cores(self, job: GpuJob, *, node_cores: int) -> int:
        """The per-node core count to place ``job`` with.

        A job already tuned in this run (e.g., migrated by the multi-array
        scheduler) restarts at its tuned allocation; otherwise N_start.
        """
        known = self._known_cores.get(job.job_id)
        if known is not None:
            return min(known, node_cores)
        return determine_n_start(
            job,
            self.history,
            max_cores=min(self.max_cores_per_job, node_cores),
        )

    # ------------------------------------------------------------------ #
    # Runtime: profiling-step loop

    def on_job_started(
        self, job: GpuJob, cores_per_node: int, context: SchedulerContext
    ) -> None:
        """Begin (or skip) tuning for a job that just started running."""
        if job.job_id in self._known_cores:
            return  # migrated back in at its tuned allocation
        if job.job_id in self._active:
            return
        if context.now < self._degraded_until:
            # Degraded mode: repeated failure-killed sessions showed that
            # probing is currently wasted work (every search dies with its
            # node), so the job simply runs at its category-default
            # N_start until the cooldown passes.
            self.sessions_skipped_degraded += 1
            return
        session = TuningSession(
            n_start=cores_per_node,
            min_cores=1,
            max_cores=self.max_cores_per_job,
            epsilon=self.epsilon,
        )
        active = _ActiveSession(job=job, session=session)
        self._active[job.job_id] = active
        self._arm_step(active, context)

    def on_job_finished(self, job: GpuJob, final_cores: Optional[int]) -> None:
        """Record the outcome and tear down any in-flight session."""
        active = self._active.pop(job.job_id, None)
        if active is not None and active.event_handle is not None:
            active.event_handle.cancel()
        tuned = self._known_cores.pop(job.job_id, None)
        if tuned is None:
            if active is not None:
                tuned = active.session.best_cores
            elif final_cores is not None:
                tuned = final_cores
            else:
                return
        steps = active.session.steps_taken if active is not None else 0
        self.outcomes.setdefault(
            job.job_id,
            TuningOutcome(
                job_id=job.job_id,
                model_name=job.model_name,
                n_start=active.session.n_start if active else tuned,
                tuned_cores=tuned,
                profiling_steps=steps,
                requested_cpus=job.requested_cpus,
            ),
        )
        self._record_history(job, tuned)

    def on_job_preempted(self, job: GpuJob, current_cores: int) -> None:
        """A running job was migrated; remember where tuning stood."""
        active = self._active.pop(job.job_id, None)
        if active is not None:
            if active.event_handle is not None:
                active.event_handle.cancel()
            self._known_cores[job.job_id] = active.session.best_cores
        else:
            self._known_cores.setdefault(job.job_id, current_cores)

    def on_job_failed(self, job: GpuJob, now: Optional[float] = None) -> None:
        """The job was killed by an infrastructure failure.

        Unlike a migration, a crash invalidates the search: the samples
        behind a half-finished session measured a node that no longer
        exists, and even a settled allocation may not suit wherever the
        job restarts.  Abort the session and drop the tuned cores so the
        restarted job re-derives N_start and profiles afresh.

        Each in-flight session killed this way counts toward degraded
        mode: after ``degraded_after_aborts`` consecutive kills (with no
        cleanly completed session in between) the allocator stops opening
        new sessions for ``degraded_cooldown_s`` — re-probing forever on
        hardware that keeps eating the probes wastes resize churn for
        tuning data that never lands.  Resize-refusal aborts do *not*
        count: those settle deterministically on the session's best cores
        and are a normal part of a loaded, healthy cluster.
        """
        active = self._active.pop(job.job_id, None)
        if active is not None and active.event_handle is not None:
            active.event_handle.cancel()
        self._known_cores.pop(job.job_id, None)
        if active is not None and now is not None:
            self._failure_aborts += 1
            if self._failure_aborts >= self.degraded_after_aborts:
                self._degraded_until = now + self.degraded_cooldown_s
                self._failure_aborts = 0
                self.degraded_entries += 1

    def tuned_cores(self, job_id: str) -> Optional[int]:
        return self._known_cores.get(job_id)

    # ------------------------------------------------------------------ #
    # Internals

    def _arm_step(self, active: _ActiveSession, context: SchedulerContext) -> None:
        active.event_handle = context.arm_timer(
            PROFILE_STEP, self.profiling_step_s, active.job.job_id
        )

    def _on_step(self, job_id: str, context: SchedulerContext) -> None:
        active = self._active.get(job_id)
        if active is None:
            return  # job finished or was preempted before the step fired
        session = active.session
        cores = session.next_cores
        if cores is None:
            self._finish_session(job_id, context)
            return
        try:
            utilization = context.gpu_job_utilization(job_id)
        except KeyError:
            # The job is no longer running; the finish/preempt hooks will
            # (or already did) clean up.
            return
        next_cores = session.record(cores, utilization)
        if next_cores is None:
            self._finish_session(job_id, context)
            return
        if not context.resize_gpu_job_cores(job_id, next_cores):
            # The node cannot grow the job right now; settle for the best
            # allocation seen and fall back to it.
            session.abort()
            context.resize_gpu_job_cores(job_id, session.best_cores)
            self._finish_session(job_id, context)
            return
        self._arm_step(active, context)

    def _finish_session(self, job_id: str, context: SchedulerContext) -> None:
        active = self._active.pop(job_id, None)
        if active is None:
            return
        # A session that ran to a settled allocation is proof the control
        # loop works again; the degraded-mode strike count starts over.
        self._failure_aborts = 0
        session = active.session
        best = session.best_cores
        self._known_cores[job_id] = best
        context.resize_gpu_job_cores(job_id, best)
        self.outcomes[job_id] = TuningOutcome(
            job_id=job_id,
            model_name=active.job.model_name,
            n_start=session.n_start,
            tuned_cores=best,
            profiling_steps=session.steps_taken,
            requested_cpus=active.job.requested_cpus,
        )

    # ------------------------------------------------------------------ #
    # Checkpoint / restore: a session's profiling-step timer lives in the
    # engine inventory, which hands its handle back (:meth:`_keep_step`).

    STATE = Struct(
        ("history", NESTED),
        ("outcomes", DictOf(JOB_ID, _OUTCOME)),
        ("active", "_active", DictOf(JOB_ID, _ACTIVE)),
        ("known_cores", "_known_cores", DictOf(JOB_ID, INT)),
        ("failure_aborts", "_failure_aborts", INT),
        ("degraded_until", "_degraded_until", FLOAT),
        ("degraded_entries", INT),
        ("sessions_skipped_degraded", INT),
    )

    def _keep_step(self, handle: EventHandle, job_id: str) -> None:
        active = self._active.get(job_id)
        if active is None:
            raise LookupError(f"job {job_id!r} has no active tuning session")
        active.event_handle = handle

    def _record_history(self, job: GpuJob, tuned_cores: int) -> None:
        """Single-node outcomes feed the history, normalized per GPU so a
        future 4-GPU job scales a 1-GPU precedent correctly.  Multi-node
        outcomes are excluded: their 2-core network-bound allocations say
        nothing about the model's real appetite."""
        if job.setup.num_nodes > 1:
            return
        per_gpu = max(1, round(tuned_cores / job.setup.gpus_per_node))
        self.history.record(
            tenant_id=job.tenant_id,
            job_id=job.job_id,
            model_name=job.model_name,
            category=job.category,
            tuned_cores=per_gpu,
        )
