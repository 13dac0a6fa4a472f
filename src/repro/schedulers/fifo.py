"""FIFO scheduling — the paper's status-quo baseline.

The studied cluster runs SLURM "that uses FIFO to schedule jobs from
different parties" (Sec. III-A).  Production SLURM deployments place CPU
and GPU jobs through separate partitions, so the behaviour the paper
measures — CPU jobs scheduling within seconds (Fig. 2c) while GPU jobs
suffer head-of-line blocking, fragmentation, and long queues — corresponds
to FIFO *per kind*:

* GPU jobs are strictly FIFO among themselves: the first GPU job that does
  not fit blocks all later GPU jobs (no backfill);
* CPU jobs are strictly FIFO among themselves but do not wait behind a
  blocked GPU job (separate partition).

Both kinds draw from the same physical nodes — a CPU job landing on a GPU
node consumes the cores a pending training job needs, which is the
fragmentation mechanism of Sec. VI-C.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

from repro.cluster.cluster import Cluster
from repro.health.restarts import RestartPolicy
from repro.schedulers.base import Decision, Scheduler, StartDecision
from repro.schedulers.dirty import PassGate
from repro.schedulers.placement import FreeState, place_cpu_job, place_gpu_job
from repro.sim.state import JOB, ListOf, Refs, Struct
from repro.workload.job import CpuJob, GpuJob, Job


class FifoScheduler(Scheduler):
    """First-in-first-out per job kind, no backfill.

    Incremental scheduling: each kind is one :class:`PassGate` group.
    Only the queue *head* is ever examined (no backfill), so a submit
    dirties its group only when it lands on an empty queue (it becomes
    the head); a re-queue at the head always dirties.  A clean group's
    head is still blocked against a free state that has only shrunk
    since the last pass, so skipping its loop reproduces the previous
    answer — zero decisions — byte-for-byte.
    """

    name = "fifo"

    def __init__(
        self, *, restart_policy: Optional[RestartPolicy] = None
    ) -> None:
        super().__init__(restart_policy=restart_policy)
        self._gpu_queue: Deque[GpuJob] = deque()
        self._cpu_queue: Deque[CpuJob] = deque()
        self._gate = PassGate(("gpu", "cpu"))

    def submit(self, job: Job, now: float) -> None:
        if isinstance(job, GpuJob):
            if not self._gpu_queue:
                self._gate.mark("gpu")
            self._gpu_queue.append(job)
        elif isinstance(job, CpuJob):
            if not self._cpu_queue:
                self._gate.mark("cpu")
            self._cpu_queue.append(job)
        else:
            raise TypeError(f"unknown job type: {type(job).__name__}")

    def job_finished(self, job: Job, now: float) -> None:
        """FIFO keeps no running-state; nothing to update."""

    def job_preempted(self, job: Job, now: float, *, preserve_progress: bool) -> None:
        """FIFO never preempts, but honour the interface: back to the head."""
        if isinstance(job, GpuJob):
            self._gate.mark("gpu")
            self._gpu_queue.appendleft(job)
        else:
            self._gate.mark("cpu")
            self._cpu_queue.appendleft(job)

    def can_skip_pass(self, cluster: Cluster) -> bool:
        return self._gate.can_skip_pass(cluster, sum(self.queue_depths()))

    def schedule(self, cluster: Cluster, now: float) -> List[Decision]:
        decisions: List[Decision] = []
        free = FreeState.of(
            cluster, now=now, reference=not self._gate.enabled
        )

        if self._gate.should_scan("gpu", cluster):
            while self._gpu_queue:
                head = self._gpu_queue[0]
                placements = place_gpu_job(head, free)
                if placements is None:
                    break  # head-of-line blocking: no GPU backfill
                free.commit(placements)
                decisions.append(
                    StartDecision(job=head, placements=tuple(placements))
                )
                self._gpu_queue.popleft()

        if self._gate.should_scan("cpu", cluster):
            while self._cpu_queue:
                head = self._cpu_queue[0]
                placements = place_cpu_job(head, free)
                if placements is None:
                    break
                free.commit(placements)
                decisions.append(
                    StartDecision(job=head, placements=tuple(placements))
                )
                self._cpu_queue.popleft()

        self._gate.pass_done(cluster)
        return decisions

    def pending_jobs(self) -> List[Job]:
        return list(self._gpu_queue) + list(self._cpu_queue)

    def queue_depths(self) -> Tuple[int, int]:
        # One queue per kind: the deque lengths are the O(1) counts.
        return len(self._gpu_queue), len(self._cpu_queue)

    # ------------------------------------------------------------------ #
    # Checkpoint / restore

    STATE = Scheduler.STATE.plus((
        "queues", None, Struct(
            ("gpu", "_gpu_queue", ListOf(JOB, deque)),
            ("cpu", "_cpu_queue", ListOf(JOB, deque)),
        ),
    ))

    def _after_load(self, refs: Refs) -> None:
        self._gate.mark_all()
