"""The CODA scheduling system (Fig. 8).

Wires the three components behind the standard scheduler interface:

* the :class:`~repro.core.multiarray.MultiArrayScheduler` owns the queues
  and placement;
* the :class:`~repro.core.allocator.AdaptiveCpuAllocator` supplies each
  training job's starting core count and runs the 90-second profiling
  loop once the job is on GPUs;
* the :class:`~repro.core.eliminator.ContentionEliminator` polices memory
  bandwidth on every node.

CODA also "periodically updates the job information from all users ...
in the backend" — here that backend is the allocator's
:class:`~repro.core.historylog.TenantHistory`, fed on every completion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

from repro.core.allocator import AdaptiveCpuAllocator, PROFILING_STEP_S
from repro.core.arrays import DEFAULT_FOUR_GPU_FRACTION, DEFAULT_RESERVED_CORES
from repro.core.eliminator import ContentionEliminator, EliminatorConfig
from repro.core.multiarray import MultiArrayScheduler
from repro.core.tuning import DEFAULT_EPSILON
from repro.health.restarts import RestartPolicy
from repro.schedulers.base import SchedulerContext
from repro.sim.state import NESTED
from repro.workload.job import GpuJob, Job


@dataclass(frozen=True)
class CodaConfig:
    """All of CODA's tunables in one place."""

    reserved_cores: int = DEFAULT_RESERVED_CORES
    four_gpu_fraction: float = DEFAULT_FOUR_GPU_FRACTION
    profiling_step_s: float = PROFILING_STEP_S
    tuning_epsilon: float = DEFAULT_EPSILON
    max_cores_per_job: int = 24
    history_window: int = 20
    #: Consecutive failure-killed profiling sessions after which the
    #: allocator stops probing and serves category-default N_start only
    #: (degraded mode, see docs/resilience.md).
    degraded_after_aborts: int = 3
    #: How long degraded mode lasts before profiling resumes.
    degraded_cooldown_s: float = 1800.0
    #: Extension beyond the paper: prefer placing trainers on nodes with
    #: memory-bandwidth/PCIe headroom (see MultiArrayScheduler).
    contention_aware_placement: bool = False
    #: Extension: keep multi-node gangs inside one rack when the cluster
    #: is racked (no effect on the paper's flat topology).
    rack_aware_placement: bool = False
    eliminator: EliminatorConfig = field(default_factory=EliminatorConfig)

    @classmethod
    def provisioned_from(cls, jobs, cluster_config, **overrides) -> "CodaConfig":
        """Size the arrays from historical jobs (Sec. V-C's "historical
        statistical information") — see :mod:`repro.core.provisioning`."""
        from repro.core.provisioning import (
            suggest_four_gpu_fraction,
            suggest_reservation,
        )

        values = dict(
            reserved_cores=suggest_reservation(jobs, cluster_config),
            four_gpu_fraction=suggest_four_gpu_fraction(jobs),
        )
        values.update(overrides)
        return cls(**values)


class CodaScheduler(MultiArrayScheduler):
    """The complete CODA system as a drop-in scheduler."""

    name = "coda"

    def __init__(
        self,
        config: Optional[CodaConfig] = None,
        *,
        restart_policy: Optional[RestartPolicy] = None,
    ) -> None:
        self.config = config or CodaConfig()
        allocator = AdaptiveCpuAllocator(
            profiling_step_s=self.config.profiling_step_s,
            epsilon=self.config.tuning_epsilon,
            max_cores_per_job=self.config.max_cores_per_job,
            history_window=self.config.history_window,
            degraded_after_aborts=self.config.degraded_after_aborts,
            degraded_cooldown_s=self.config.degraded_cooldown_s,
        )
        super().__init__(
            allocator,
            reserved_cores=self.config.reserved_cores,
            four_gpu_fraction=self.config.four_gpu_fraction,
            contention_aware=self.config.contention_aware_placement,
            rack_aware=self.config.rack_aware_placement,
            restart_policy=restart_policy,
        )
        self.eliminator = ContentionEliminator(config=self.config.eliminator)

    # ------------------------------------------------------------------ #
    # Lifecycle hooks

    def attach(self, context: SchedulerContext) -> None:
        super().attach(context)
        self.allocator.attach(context)
        self.eliminator.start(context)

    def job_started(
        self, job: Job, placements: Sequence[Tuple[int, int, int]], now: float
    ) -> None:
        super().job_started(job, placements, now)
        if isinstance(job, GpuJob):
            if self._context is None:
                raise RuntimeError(
                    "CodaScheduler.job_started before attach(); the runner "
                    "must attach the scheduler first"
                )
            self.allocator.on_job_started(job, placements[0][1], self._context)

    def job_finished(self, job: Job, now: float) -> None:
        if isinstance(job, GpuJob):
            final = self._final_cores(job)
            self.allocator.on_job_finished(job, final)
            self.eliminator.forget_job(job.job_id)
        super().job_finished(job, now)

    def job_preempted(self, job: Job, now: float, *, preserve_progress: bool) -> None:
        if isinstance(job, GpuJob):
            self.allocator.on_job_preempted(job, self._final_cores(job) or 1)
            self.eliminator.forget_job(job.job_id)
        super().job_preempted(job, now, preserve_progress=preserve_progress)

    def job_failed(self, job: Job, now: float) -> None:
        """Failure path: unlike a migration, the allocator aborts any
        in-flight profiling search and forgets the tuned cores, so the
        restarted job falls back to N_start (Sec. V-B) on whatever node it
        lands on next.  The base class then charges the restart budget and
        decides between re-queue (possibly delayed) and the dead-job
        ledger."""
        if isinstance(job, GpuJob):
            self.allocator.on_job_failed(job, now)
            self.eliminator.forget_job(job.job_id)
        super().job_failed(job, now)

    def _requeue_failed_job(self, job: Job, now: float) -> None:
        # Skip CodaScheduler.job_preempted (it would stash tuned cores the
        # failure path just dropped); the multi-array re-queue still lands
        # the job at its array head.
        MultiArrayScheduler.job_preempted(
            self, job, now, preserve_progress=False
        )

    # ------------------------------------------------------------------ #
    # Checkpoint / restore

    STATE = MultiArrayScheduler.STATE.plus(
        ("allocator", NESTED), ("eliminator", NESTED)
    )

    def _final_cores(self, job: GpuJob) -> Optional[int]:
        """The per-node cores the job last ran with, if discoverable."""
        tuned = self.allocator.tuned_cores(job.job_id)
        if tuned is not None:
            return tuned
        context = self._context
        if context is not None and context.cluster.has_allocation(job.job_id):
            return context.cluster.allocation_of(job.job_id).shares[0].cpus
        return None
