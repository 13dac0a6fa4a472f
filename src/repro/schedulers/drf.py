"""Dominant Resource Fairness — the paper's fairness baseline.

Progressive filling (Ghodsi et al., NSDI'11): repeatedly give the next
task to the tenant with the smallest dominant share.  The paper evaluates
DRF "consider[ing] GPU as the dominant resource" for GPU tenants, which is
what the dominant-share computation yields naturally since GPUs are the
scarce dimension.

Within a tenant, jobs stay FIFO.  A tenant whose head job does not fit is
skipped for the remainder of the pass (its later jobs must not jump the
tenant's own queue), but other tenants keep filling — this is why DRF's
queueing is fairer than FIFO's in Fig. 12 while its fragmentation stays
just as bad (Sec. VI-C): skipping tenants does not create the CPU cores
that GPU-starved nodes are missing.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.cluster.cluster import Cluster
from repro.health.restarts import RestartPolicy
from repro.schedulers.base import (
    Decision,
    Scheduler,
    StartDecision,
    TenantQueues,
    UsageLedger,
)
from repro.schedulers.dirty import PassGate
from repro.sim.state import NESTED, Refs, Struct
from repro.schedulers.placement import (
    FreeState,
    Placement,
    place_cpu_job,
    place_gpu_job,
)
from repro.workload.job import CpuJob, GpuJob, Job


class DrfScheduler(Scheduler):
    """Dominant Resource Fairness with per-tenant FIFO queues.

    Incremental scheduling: one :class:`PassGate` group ("drf") over one
    head-only :class:`TenantQueues` family, whose share heap replaces
    the per-iteration linear tenant scan.  Only a submit that lands on an
    empty queue or a head re-queue dirties the group.  Ledger changes (a
    job finishing) alter tenant *order* only — with every head still
    blocked, selection order is irrelevant and the pass still returns
    zero decisions, so they re-key the heap without dirtying the gate.
    Under ``REPRO_REFERENCE=1`` the linear scan runs as the parity
    reference.
    """

    name = "drf"

    def __init__(
        self, *, restart_policy: Optional[RestartPolicy] = None
    ) -> None:
        super().__init__(restart_policy=restart_policy)
        self._ledger = UsageLedger()
        self._gate = PassGate(("drf",))
        #: Queued ``[gpu, cpu]`` jobs, moved by the family.
        self._depths = [0, 0]
        self._tenants: TenantQueues[Job] = TenantQueues(
            "drf", self._ledger, self._gate, self._depths
        )
        self.families = (self._tenants,)

    # ------------------------------------------------------------------ #
    # Queue maintenance

    def submit(self, job: Job, now: float) -> None:
        self._tenants.submit(job)

    def job_finished(self, job: Job, now: float) -> None:
        self._release_share(job)

    def _release_share(self, job: Job) -> None:
        if self._ledger.finish(job.job_id) is not None:
            self._tenants.share_changed(job.tenant_id)

    def job_preempted(self, job: Job, now: float, *, preserve_progress: bool) -> None:
        self._ledger.finish(job.job_id)
        self._tenants.requeue(job)

    # ------------------------------------------------------------------ #
    # Progressive filling

    def can_skip_pass(self, cluster: Cluster) -> bool:
        return self._gate.can_skip_pass(cluster, sum(self._depths))

    def schedule(self, cluster: Cluster, now: float) -> List[Decision]:
        decisions: List[Decision] = []
        free = FreeState.of(
            cluster, now=now, reference=not self._gate.enabled
        )
        tenants = self._tenants
        if self._gate.should_scan("drf", cluster):
            for tenant_id in tenants.drf_order(cluster.total):
                head = tenants.head(tenant_id)
                placements = self._try_place(head, free)
                if placements is None:
                    tenants.block(tenant_id)
                    continue
                free.commit(placements)
                tenants.take(tenant_id)
                requested = head.requested
                self._ledger.start(
                    head.job_id, tenant_id, requested.cpus, requested.gpus
                )
                tenants.share_changed(tenant_id)
                decisions.append(
                    StartDecision(job=head, placements=tuple(placements))
                )
        self._gate.pass_done(cluster)
        return decisions

    @staticmethod
    def _try_place(job: Job, free: FreeState) -> Optional[List[Placement]]:
        if isinstance(job, GpuJob):
            return place_gpu_job(job, free)
        if isinstance(job, CpuJob):
            return place_cpu_job(job, free)
        raise TypeError(f"unknown job type: {type(job).__name__}")

    def pending_jobs(self) -> List[Job]:
        pending = list(self._tenants.jobs())
        pending.sort(key=lambda job: (job.submit_time, job.job_id))
        return pending

    def queue_depths(self) -> Tuple[int, int]:
        gpu, cpu = self._depths
        return gpu, cpu

    # ------------------------------------------------------------------ #
    # Checkpoint / restore

    STATE = Scheduler.STATE.plus((
        "queues", None, Struct(
            ("tenants", "_tenants", NESTED), ("ledger", "_ledger", NESTED)
        ),
    ))

    def _after_load(self, refs: Refs) -> None:
        self._gate.mark_all()
