"""The simulation's metrics collector.

One collector per run.  The runner pushes job lifecycle events and periodic
cluster samples into it; the experiment harness reads figures out of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.metrics.audit import AuditStats
from repro.metrics.faults import FaultStats
from repro.metrics.fragmentation import FragmentationTracker
from repro.metrics.series import SampledSeries
from repro.workload.job import Job, JobKind


@dataclass(slots=True)
class JobRecord:
    """Lifecycle of one job through a run.  Slotted: every result keeps
    one per job of its trace."""

    job_id: str
    kind: JobKind
    tenant_id: int
    submit_time: float
    first_start: Optional[float] = None
    finish_time: Optional[float] = None
    start_count: int = 0
    preempt_count: int = 0
    failure_count: int = 0
    requested_cpus: int = 0
    final_cpus: Optional[int] = None
    gpus: int = 0
    model: Optional[str] = None
    setup_label: Optional[str] = None

    @property
    def queueing_time(self) -> Optional[float]:
        """Submit-to-first-start delay; None while still queued."""
        if self.first_start is None:
            return None
        return self.first_start - self.submit_time

    @property
    def end_to_end(self) -> Optional[float]:
        if self.finish_time is None:
            return None
        return self.finish_time - self.submit_time

    @property
    def processing_time(self) -> Optional[float]:
        if self.finish_time is None or self.first_start is None:
            return None
        return self.finish_time - self.first_start

    @property
    def core_adjustment(self) -> Optional[int]:
        """Final minus requested per-node cores (the Fig. 14 histogram)."""
        if self.final_cpus is None:
            return None
        return self.final_cpus - self.requested_cpus


class MetricsCollector:
    """Aggregates everything the evaluation figures need."""

    def __init__(self) -> None:
        self.records: Dict[str, JobRecord] = {}
        self.gpu_active_rate = SampledSeries("gpu_active_rate")
        self.gpu_utilization = SampledSeries("gpu_utilization")
        self.gpu_utilization_overall = SampledSeries("gpu_utilization_overall")
        self.cpu_active_rate = SampledSeries("cpu_active_rate")
        self.gpu_queue_depth = SampledSeries("gpu_queue_depth")
        self.cpu_queue_depth = SampledSeries("cpu_queue_depth")
        self.hot_nodes = SampledSeries("hot_nodes")
        self.fragmentation = FragmentationTracker()
        self.faults = FaultStats()
        self.audit = AuditStats()
        self.throttle_events = 0
        self.core_halving_events = 0

    # ------------------------------------------------------------------ #
    # Job lifecycle

    def job_submitted(self, job: Job, now: float) -> None:
        if job.job_id in self.records:
            raise RuntimeError(f"job {job.job_id} submitted twice")
        requested = job.requested
        self.records[job.job_id] = JobRecord(
            job_id=job.job_id,
            kind=job.kind,
            tenant_id=job.tenant_id,
            submit_time=now,
            requested_cpus=(
                requested.cpus // max(1, getattr(job, "setup", None).num_nodes)
                if job.kind is JobKind.GPU
                else requested.cpus
            ),
            gpus=requested.gpus,
            model=getattr(job, "model_name", None),
            setup_label=(
                job.setup.label if job.kind is JobKind.GPU else None
            ),
        )

    def job_started(self, job_id: str, now: float, cpus_per_node: int) -> None:
        record = self.records[job_id]
        if record.first_start is None:
            record.first_start = now
        record.start_count += 1
        record.final_cpus = cpus_per_node

    def job_resized(self, job_id: str, cpus_per_node: int) -> None:
        self.records[job_id].final_cpus = cpus_per_node

    def job_preempted(self, job_id: str, now: float) -> None:
        self.records[job_id].preempt_count += 1

    def job_failed(self, job_id: str, now: float) -> None:
        """The job was killed by an infrastructure failure (not policy)."""
        self.records[job_id].failure_count += 1

    def job_finished(self, job_id: str, now: float) -> None:
        record = self.records[job_id]
        if record.finish_time is not None:
            raise RuntimeError(f"job {job_id} finished twice")
        record.finish_time = now

    # ------------------------------------------------------------------ #
    # Periodic sampling

    def sample_cluster(
        self,
        now: float,
        *,
        gpu_active_rate: float,
        gpu_utilization: float,
        gpu_utilization_overall: float,
        cpu_active_rate: float,
        gpu_queue_depth: int,
        cpu_queue_depth: int,
        free_gpu_fraction: float,
        hot_nodes: int = 0,
    ) -> None:
        # This method is the only writer of the seven series below, so they
        # share one time column: one monotonicity check covers the whole
        # batch and each sample is appended directly instead of re-checking
        # per series (this runs on every monitor tick).
        anchor = self.gpu_active_rate.points
        if anchor and now < anchor[-1][0]:
            raise ValueError(
                f"series gpu_active_rate: sample at {now} before last "
                f"{anchor[-1][0]}"
            )
        anchor.append((now, gpu_active_rate))
        self.gpu_utilization.points.append((now, gpu_utilization))
        self.gpu_utilization_overall.points.append((now, gpu_utilization_overall))
        self.cpu_active_rate.points.append((now, cpu_active_rate))
        self.gpu_queue_depth.points.append((now, gpu_queue_depth))
        self.cpu_queue_depth.points.append((now, cpu_queue_depth))
        self.hot_nodes.points.append((now, hot_nodes))
        self.fragmentation.record(now, free_gpu_fraction, gpu_queue_depth)

    # ------------------------------------------------------------------ #
    # Views

    def finished_records(self, kind: Optional[JobKind] = None) -> List[JobRecord]:
        return [
            r
            for r in self.records.values()
            if r.finish_time is not None and (kind is None or r.kind is kind)
        ]

    def started_records(self, kind: Optional[JobKind] = None) -> List[JobRecord]:
        return [
            r
            for r in self.records.values()
            if r.first_start is not None and (kind is None or r.kind is kind)
        ]

    def queueing_times(
        self, kind: Optional[JobKind] = None, *, include_unstarted_until: Optional[float] = None
    ) -> List[float]:
        """Queueing delays of started jobs; optionally count still-queued
        jobs as censored at the horizon (keeps saturated baselines honest —
        dropping never-started jobs would *flatter* a bad scheduler)."""
        delays: List[float] = []
        for record in self.records.values():
            if kind is not None and record.kind is not kind:
                continue
            queueing = record.queueing_time
            if queueing is not None:
                delays.append(queueing)
            elif include_unstarted_until is not None:
                delays.append(include_unstarted_until - record.submit_time)
        return delays

    def queueing_times_by_tenant(
        self, *, include_unstarted_until: Optional[float] = None
    ) -> Dict[int, List[float]]:
        by_tenant: Dict[int, List[float]] = {}
        for record in self.records.values():
            queueing = record.queueing_time
            if queueing is None:
                if include_unstarted_until is None:
                    continue
                queueing = include_unstarted_until - record.submit_time
            by_tenant.setdefault(record.tenant_id, []).append(queueing)
        return by_tenant
