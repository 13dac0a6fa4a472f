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

from collections import deque
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

from repro.cluster.cluster import Cluster
from repro.health.restarts import RestartPolicy
from repro.schedulers.base import (
    Decision,
    Scheduler,
    ShareHeap,
    StartDecision,
    UsageLedger,
    depths_of,
)
from repro.schedulers.dirty import PassGate
from repro.schedulers.placement import FreeState, place_cpu_job, place_gpu_job
from repro.workload.job import CpuJob, GpuJob, Job


class DrfScheduler(Scheduler):
    """Dominant Resource Fairness with per-tenant FIFO queues.

    Incremental scheduling: one :class:`PassGate` group ("drf") and a
    :class:`ShareHeap` replacing the per-iteration linear tenant scan.
    Per-tenant queues are head-only windows, so only a submit that lands
    on an empty queue or a head re-queue dirties the group.  Ledger
    changes (a job finishing) alter tenant *order* only — with every
    head still blocked, selection order is irrelevant and the pass still
    returns zero decisions, so they update the heap without dirtying the
    gate.  Under ``REPRO_REFERENCE=1`` the original linear scan runs
    as the parity reference.
    """

    name = "drf"

    def __init__(
        self, *, restart_policy: Optional[RestartPolicy] = None
    ) -> None:
        super().__init__(restart_policy=restart_policy)
        self._queues: Dict[int, Deque[Job]] = {}
        #: O(1) queue depths ``[gpu, cpu]``, moved at every append,
        #: appendleft and popleft on a tenant queue.
        self._queued = [0, 0]
        self._ledger = UsageLedger()
        self._gate = PassGate(("drf",))
        self._share_heap = ShareHeap(self._ledger)

    # ------------------------------------------------------------------ #
    # Queue maintenance

    def submit(self, job: Job, now: float) -> None:
        queue = self._queues.setdefault(job.tenant_id, deque())
        if not queue:
            self._gate.mark("drf")
            self._share_heap.push(job.tenant_id)
        queue.append(job)
        self._queued[_kind(job)] += 1

    def job_finished(self, job: Job, now: float) -> None:
        if self._ledger.finish(job.job_id) is not None:
            # The tenant's dominant share dropped: re-key it in the heap
            # (order-only change; the gate stays clean).
            if self._queues.get(job.tenant_id):
                self._share_heap.push(job.tenant_id)

    def job_preempted(self, job: Job, now: float, *, preserve_progress: bool) -> None:
        self._ledger.finish(job.job_id)
        self._gate.mark("drf")
        self._queues.setdefault(job.tenant_id, deque()).appendleft(job)
        self._queued[_kind(job)] += 1
        self._share_heap.push(job.tenant_id)

    # ------------------------------------------------------------------ #
    # Progressive filling

    def can_skip_pass(self, cluster: Cluster) -> bool:
        return self._gate.can_skip_pass(cluster, sum(self._queued))

    def schedule(self, cluster: Cluster, now: float) -> List[Decision]:
        decisions: List[Decision] = []
        free = FreeState.of(
            cluster, now=now, reference=not self._gate.enabled
        )
        total = cluster.total
        blocked: Set[int] = set()

        if not self._gate.enabled:
            # Reference implementation: linear min-share scan per pick.
            while True:
                tenant_id = self._next_tenant(total.cpus, total.gpus, blocked)
                if tenant_id is None:
                    break
                self._fill_one(tenant_id, free, blocked, decisions)
            return decisions

        heap = self._share_heap
        heap.configure(total.cpus, total.gpus)
        if heap.needs_rebuild:
            heap.rebuild(self._queues)
        if self._gate.should_scan("drf", cluster):
            while True:
                entry = heap.pop_min(self._queues, blocked)
                if entry is None:
                    break
                tenant_id = entry[1]
                if self._fill_one(tenant_id, free, blocked, decisions):
                    if self._queues[tenant_id]:
                        heap.push(tenant_id)
                else:
                    heap.stash(entry)
        heap.flush_stash()
        self._gate.pass_done(cluster)
        return decisions

    def _fill_one(
        self,
        tenant_id: int,
        free: FreeState,
        blocked: Set[int],
        decisions: List[Decision],
    ) -> bool:
        """Try the tenant's head job; True when it was placed."""
        queue = self._queues[tenant_id]
        head = queue[0]
        placements = self._try_place(head, free)
        if placements is None:
            blocked.add(tenant_id)
            return False
        free.commit(placements)
        queue.popleft()
        self._queued[_kind(head)] -= 1
        requested = head.requested
        self._ledger.start(
            head.job_id, tenant_id, requested.cpus, requested.gpus
        )
        decisions.append(StartDecision(job=head, placements=tuple(placements)))
        return True

    def _next_tenant(
        self, total_cpus: int, total_gpus: int, blocked: Set[int]
    ) -> Optional[int]:
        best_id, best_share = None, None
        for tenant_id, queue in self._queues.items():
            if not queue or tenant_id in blocked:
                continue
            share = self._ledger.dominant_share(tenant_id, total_cpus, total_gpus)
            if best_share is None or (share, tenant_id) < (best_share, best_id):
                best_id, best_share = tenant_id, share
        return best_id

    @staticmethod
    def _try_place(job: Job, free: FreeState):
        if isinstance(job, GpuJob):
            return place_gpu_job(job, free)
        if isinstance(job, CpuJob):
            return place_cpu_job(job, free)
        raise TypeError(f"unknown job type: {type(job).__name__}")

    def pending_jobs(self) -> List[Job]:
        pending: List[Job] = []
        for queue in self._queues.values():
            pending.extend(queue)
        pending.sort(key=lambda job: (job.submit_time, job.job_id))
        return pending

    def queue_depths(self) -> Tuple[int, int]:
        gpu, cpu = self._queued
        return gpu, cpu

    # ------------------------------------------------------------------ #
    # Checkpoint / restore

    def _snapshot_queues(self) -> Dict[str, Any]:
        return {
            "tenants": {
                str(tenant_id): [job.job_id for job in queue]
                for tenant_id, queue in self._queues.items()
            },
            "ledger": self._ledger.snapshot(),
        }

    def _restore_queues(
        self, state: Dict[str, Any], jobs_by_id: Dict[str, Job]
    ) -> None:
        self._queues = {
            int(tenant_id): deque(jobs_by_id[job_id] for job_id in job_ids)
            for tenant_id, job_ids in state["tenants"].items()
        }
        self._queued = list(depths_of(self.pending_jobs()))
        self._ledger.restore(state["ledger"])
        self._gate.mark_all()
        self._share_heap.invalidate()


def _kind(job: Job) -> int:
    """Index of ``job``'s kind in :attr:`DrfScheduler._queued`."""
    return 0 if isinstance(job, GpuJob) else 1
