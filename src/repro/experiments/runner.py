"""The simulation driver.

:class:`SimulationRunner` executes a job trace under a scheduling policy on
a simulated cluster:

* arrivals and completions are discrete events;
* every running DNN training job carries (work_done, speed); *any* change
  of conditions on its nodes — a CPU job starting or finishing, a throttle,
  a core retune, a new co-located trainer — re-prices its speed from the
  performance model and reschedules its completion event.  This
  progress-based execution is what lets contention and adaptive allocation
  show up in end-to-end latencies;
* the runner implements :class:`~repro.schedulers.base.SchedulerContext`,
  the runtime-control surface CODA's allocator and eliminator act through.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.cluster.allocation import Allocation
from repro.cluster.cluster import Cluster
from repro.health.config import HealthConfig
from repro.health.tracker import NodeHealthTracker
from repro.metrics.collector import MetricsCollector
from repro.perfmodel.bandwidth import memory_bandwidth_demand
from repro.perfmodel.catalog import ModelProfile, get_model
from repro.perfmodel.contention import (
    BANDWIDTH_PRESSURE_THRESHOLD,
    ContentionState,
    effect_key,
)
from repro.perfmodel.pcie import pcie_peak_demand
from repro.perfmodel.speed import iteration_time
from repro.schedulers.base import (
    Decision,
    PreemptDecision,
    Scheduler,
    SchedulerContext,
    StartDecision,
)
from repro.schedulers.dirty import reference_mode
from repro.sim.engine import Engine
from repro.sim.events import EventHandle, EventPriority
from repro.experiments.auditlog import AuditLog
from repro.workload.job import CpuJob, GpuJob, Job, JobKind
from repro.workload.tracegen import Trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.invariants import InvariantAuditor
    from repro.faults.injector import FaultInjector
    from repro.profiling import Profiler

#: LLC footprint a training job's CPU-side workers occupy (MB per node).
GPU_JOB_LLC_MB = 2.0

#: Fraction of an ordinary (non-HEAT) CPU job's work that stalls on memory
#: bandwidth; the rest is compute and ignores throttling.
ORDINARY_CPU_BW_BOUND = 0.15

#: Default cluster-state sampling cadence (the paper samples utilization
#: continuously; five minutes keeps week-long runs cheap and smooth).
DEFAULT_SAMPLE_INTERVAL_S = 300.0


@dataclass
class _RunningGpu:
    job: GpuJob
    profile: ModelProfile
    cores_per_node: int
    work_done: float
    speed: float
    utilization: float
    last_update: float
    completion: EventHandle
    #: Authoritative completion time.  The armed heap event may lag behind
    #: (fire earlier) when repricing moved the completion later: the stale
    #: fire detects ``completion_time > now`` and re-arms (validate-on-pop,
    #: the ShareHeap idiom).  Invariant: armed time <= completion_time.
    completion_time: float = 0.0
    #: (cores_per_node, contention effect key) of the last
    #: ``iteration_time`` call.  An equal key proves the values the speed
    #: model reads (grant ratio, post-knee bandwidth/LLC excess, PCIe
    #: ratio — see ``contention.effect_key``) are unchanged, so speed and
    #: utilization are reused verbatim ([[cache]] contract in
    #: contracts.toml; bit-identical because iteration_time is pure).
    state_memo: Optional[Tuple[Any, ...]] = None
    #: The job's allocation, interconnect, and participating Node objects,
    #: all fixed for the record's lifetime (a restarted job gets a fresh
    #: record); cached to keep per-reprice dict lookups off the hot path.
    allocation: Optional[Allocation] = None
    interconnect: Any = None
    nodes: Optional[List[Any]] = None


@dataclass
class _RunningCpu:
    job: CpuJob
    node_id: int
    cores: int
    work_done: float
    speed: float
    last_update: float
    completion: EventHandle
    #: Fault-injected slowdown (1.0 = healthy); multiplies the speed.
    straggle_factor: float = 1.0
    #: See _RunningGpu.completion_time.
    completion_time: float = 0.0
    #: The home Node object, fixed for the record's lifetime; pinned so
    #: repricing skips the per-call cluster lookup.
    node: Any = None


@dataclass
class RunResult:
    """What a completed run hands to the figures layer."""

    scheduler_name: str
    collector: MetricsCollector
    horizon_s: float
    finished_gpu_jobs: int = 0
    finished_cpu_jobs: int = 0
    preemptions: int = 0
    events_fired: int = 0
    #: Jobs killed and re-queued by infrastructure failures.
    restarts: int = 0
    #: Total node downtime over the horizon (still-open outages included).
    node_downtime_s: float = 0.0
    #: Quarantine windows entered by the node-health tracker.
    quarantines: int = 0
    #: Node-seconds spent quarantined through the horizon.
    quarantine_s: float = 0.0
    #: Jobs retired to the dead-job ledger (restart budget exhausted).
    dead_jobs: int = 0
    #: Eliminator actions suppressed by the flap cooldown (CODA only;
    #: zero for schedulers without an eliminator).
    flap_suppressions: int = 0
    #: Lazy completion timers that fired before their job's authoritative
    #: completion time and were re-armed (zero under
    #: ``REPRO_REFERENCE=1``, whose timers are always authoritative).
    #: ``events_fired`` minus this count equals the reference run's
    #: ``events_fired``.
    stale_timer_fires: int = 0


def _env_auditor() -> Optional["InvariantAuditor"]:
    """A strict invariant auditor when ``REPRO_AUDIT`` is set.

    Lets CI (and any local run) execute the whole test suite with every
    simulation audited — ``REPRO_AUDIT=1 python -m pytest`` — without
    threading an argument through every call site.
    """
    if not os.environ.get("REPRO_AUDIT"):
        return None
    from repro.analysis.invariants import InvariantAuditor

    return InvariantAuditor(strict=True)


class SimulationRunner(SchedulerContext):
    """Drives one (trace, scheduler, cluster) simulation."""

    def __init__(
        self,
        cluster: Cluster,
        scheduler: Scheduler,
        trace: Optional[Trace] = None,
        *,
        sample_interval_s: float = DEFAULT_SAMPLE_INTERVAL_S,
        engine: Optional[Engine] = None,
        collector: Optional[MetricsCollector] = None,
        audit: Optional["AuditLog"] = None,
        fault_injector: Optional["FaultInjector"] = None,
        auditor: Optional["InvariantAuditor"] = None,
        health_config: Optional[HealthConfig] = None,
        profiler: Optional["Profiler"] = None,
    ) -> None:
        if sample_interval_s <= 0:
            raise ValueError(f"non-positive sample interval: {sample_interval_s}")
        self.cluster = cluster
        if health_config is not None:
            cluster.health = NodeHealthTracker(health_config)
        self.health = cluster.health
        self.scheduler = scheduler
        self.engine = engine or Engine()
        self.collector = collector or MetricsCollector()
        self.audit = audit
        self.fault_injector = fault_injector
        self.auditor = auditor if auditor is not None else _env_auditor()
        self._sample_interval_s = sample_interval_s
        self._running_gpu: Dict[str, _RunningGpu] = {}
        self._running_cpu: Dict[str, _RunningCpu] = {}
        self._stashed_progress: Dict[str, float] = {}
        self._pass_pending = False
        self._preemptions = 0
        self._sampling = False
        #: Per-job start counter distinguishing incarnations of a restarted
        #: CPU job, so straggler-heal timers (whose tags carry the
        #: incarnation) never touch a successor of the record they slowed.
        self._cpu_incarnation: Dict[str, int] = {}
        self._straggle_count = 0
        #: Reference mode (``REPRO_REFERENCE=1``): re-price from scratch
        #: and cancel+reschedule completions on every node touch and tick
        #: every node, the pre-lazy behaviour.  Read once at construction
        #: (parity tests set the env var per runner, never mid-run).
        self._reference = reference_mode()
        self._stale_timer_fires = 0
        #: Nodes the eliminator must tick: hosts of CPU jobs or live
        #: throttles, plus telemetry-outage nodes until a successful
        #: observe clears them.  See the "Activity-indexed monitoring"
        #: section for the skip-soundness invariant.
        self._monitor_active: Set[int] = set()
        self._monitor_last_tick: Optional[float] = None
        #: When each node last became observable (up, unquarantined);
        #: +inf while it is not.  Missing means observable since t=0.
        self._observable_since: Dict[int, float] = {}
        scheduler.attach(self)
        if fault_injector is not None:
            fault_injector.attach(self)
        if self.auditor is not None:
            self.auditor.attach(self)
        if profiler is not None:
            profiler.attach(self.engine)
        if trace is not None:
            self.load_trace(trace)

    # ------------------------------------------------------------------ #
    # Setup

    def load_trace(self, trace: Trace) -> None:
        """Schedule every trace job's arrival event."""
        for job in trace.jobs:
            self.submit_at(job.submit_time, job)

    def submit_at(self, when: float, job: Job) -> None:
        self.engine.schedule(
            when,
            lambda job=job: self._on_arrival(job),
            priority=EventPriority.ARRIVAL,
            tag=f"arrival:{job.job_id}",
        )

    def enable_sampling(self) -> None:
        """Start the periodic cluster-state sampler (idempotent)."""
        if self._sampling:
            return
        self._sampling = True
        self.engine.schedule(
            self.engine.now,
            self._on_sample,
            priority=EventPriority.MONITOR,
            tag="sample",
        )

    def run(self, until: float) -> RunResult:
        """Run the simulation to the ``until`` horizon (seconds)."""
        self.enable_sampling()
        self.engine.run(until=until)
        if self.auditor is not None:
            self.auditor.check_now()
        return RunResult(
            scheduler_name=self.scheduler.name,
            collector=self.collector,
            horizon_s=until,
            finished_gpu_jobs=len(self.collector.finished_records(JobKind.GPU)),
            finished_cpu_jobs=len(self.collector.finished_records(JobKind.CPU)),
            preemptions=self._preemptions,
            events_fired=self.engine.fired,
            restarts=self.collector.faults.restarts,
            node_downtime_s=self.collector.faults.downtime_through(
                self.engine.now
            ),
            quarantines=self.collector.faults.quarantines,
            quarantine_s=self.health.total_quarantine_s(self.engine.now),
            dead_jobs=len(self.scheduler.dead_jobs),
            flap_suppressions=getattr(
                getattr(self.scheduler, "eliminator", None),
                "flap_suppressions",
                0,
            ),
            stale_timer_fires=self._stale_timer_fires,
        )

    def _audit(self, event: str, job: Job, **detail: object) -> None:
        if self.audit is None:
            return
        self.audit.record(
            self.engine.now,
            event,
            job.job_id,
            job.tenant_id,
            job.kind.value,
            **detail,
        )

    # ------------------------------------------------------------------ #
    # SchedulerContext (the surface CODA acts through)

    @property
    def now(self) -> float:
        return self.engine.now

    def schedule_event(
        self, delay_s: float, action: Callable[[], None], tag: str = ""
    ) -> EventHandle:
        return self.engine.schedule_in(
            delay_s, action, priority=EventPriority.MONITOR, tag=tag
        )

    def resize_gpu_job_cores(self, job_id: str, cpus_per_node: int) -> bool:
        record = self._running_gpu.get(job_id)
        if record is None:
            return False
        if cpus_per_node < 1:
            raise ValueError(f"{job_id}: need at least one core per node")
        allocation = self.cluster.allocation_of(job_id)
        for share in allocation.shares:
            node = self.cluster.node(share.node_id)
            if cpus_per_node - share.cpus > node.free_cpus:
                return False
        self.cluster.resize_cpus(
            job_id, {share.node_id: cpus_per_node for share in allocation.shares}
        )
        record.cores_per_node = cpus_per_node
        self.collector.job_resized(job_id, cpus_per_node)
        self._audit("resized", record.job, cores_per_node=cpus_per_node)
        demand = memory_bandwidth_demand(
            record.profile, record.job.setup, cpus_per_node
        )
        touched: Set[int] = set()
        for share in allocation.shares:
            self.cluster.node(share.node_id).bandwidth.update_demand(
                job_id, demand
            )
            touched.add(share.node_id)
        self._refresh_nodes(touched)
        return True

    def gpu_job_utilization(self, job_id: str) -> float:
        record = self._running_gpu.get(job_id)
        if record is None:
            raise KeyError(f"job {job_id} is not a running GPU job")
        return record.utilization

    def gpu_job_expected_utilization(self, job_id: str) -> float:
        record = self._running_gpu.get(job_id)
        if record is None:
            raise KeyError(f"job {job_id} is not a running GPU job")
        allocation = self.cluster.allocation_of(job_id)
        quiet = iteration_time(
            record.profile,
            record.job.setup,
            record.cores_per_node,
            interconnect=self.cluster.fabric.for_nodes(allocation.node_ids),
        )
        return quiet.utilization

    def throttle_cpu_job(self, job_id: str, node_id: int) -> bool:
        node = self.cluster.node(node_id)
        if not node.mba.supported:
            return False
        node.mba.throttle_down(job_id)
        self.collector.throttle_events += 1
        record = self._running_cpu.get(job_id)
        if record is not None:
            self._audit(
                "throttled",
                record.job,
                node_id=node_id,
                level=node.mba.throttle_level(job_id),
            )
        self._refresh_nodes({node_id})
        return True

    def release_cpu_throttle(self, job_id: str, node_id: int) -> None:
        node = self.cluster.node(node_id)
        node.mba.release(job_id)
        self._refresh_nodes({node_id})

    def halve_cpu_job_cores(self, job_id: str) -> None:
        record = self._running_cpu.get(job_id)
        if record is None:
            raise KeyError(f"job {job_id} is not a running CPU job")
        new_cores = max(1, record.cores // 2)
        if new_cores == record.cores:
            return
        node = self.cluster.node(record.node_id)
        self.cluster.resize_cpus(job_id, {record.node_id: new_cores})
        scale = new_cores / record.cores
        record.cores = new_cores
        usage = node.bandwidth.usage_of(job_id)
        node.bandwidth.update_demand(job_id, usage.demand * scale)
        self.collector.core_halving_events += 1
        self.scheduler.cpu_job_resized(job_id, new_cores, self.engine.now)
        self._audit("halved", record.job, cores=new_cores)
        self._refresh_nodes({record.node_id})
        self.request_schedule()

    def preempt_job(
        self, job_id: str, *, preserve_progress: bool, reason: str
    ) -> None:
        self._execute_preempt(
            PreemptDecision(
                job_id=job_id, reason=reason, preserve_progress=preserve_progress
            )
        )
        self.request_schedule()

    # ------------------------------------------------------------------ #
    # Activity-indexed monitoring (the eliminator's tick surface)
    #
    # The eliminator's per-node work is a no-op unless the node hosts CPU
    # jobs or live throttles, so its tick iterates an incrementally
    # maintained active set instead of the whole cluster.  Skip-soundness
    # invariant: a node outside the set was up, unquarantined,
    # telemetry-up and CPU-idle at every tick it was skipped for —
    # membership is granted *before* any of those can stop holding (a CPU
    # job starts, a telemetry outage begins) and only revoked by the
    # eliminator itself right after a successful observe found nothing to
    # do.  The only eager-tick state a skipped node would have gained is
    # its MBM sample timestamp, which :meth:`_monitor_backfill`
    # reconstructs whenever the invariant is about to stop holding.

    def monitor_active_node_ids(self) -> Sequence[int]:
        if self._reference:
            return range(len(self.cluster.nodes))
        return sorted(self._monitor_active)

    def monitor_deactivate_node(self, node_id: int) -> None:
        if not self._reference:
            self._monitor_active.discard(node_id)

    def monitor_note_tick(self, now: float) -> None:
        self._monitor_last_tick = now

    def _monitor_backfill(self, node_id: int) -> None:
        """Reconstruct the MBM sample stamp eager ticks would have left.

        While a node sits outside the active set it is provably
        telemetry-up at every skipped tick, so an eager monitor would
        have refreshed its sample time each tick; adopt the last tick
        time before the skip invariant stops holding.  ``_observable_since``
        is +inf while the node is down or quarantined, which vetoes the
        back-fill — eager ticks skip unobservable nodes too, leaving
        their stamp frozen.
        """
        if self._reference or node_id in self._monitor_active:
            return
        last_tick = self._monitor_last_tick
        if last_tick is not None and last_tick >= self._observable_since.get(
            node_id, 0.0
        ):
            self.cluster.node(node_id).bandwidth.sync_sample_time(last_tick)

    def _monitor_activate(self, node_id: int) -> None:
        """Add a node to the active set (back-filling its sample stamp)."""
        if self._reference or node_id in self._monitor_active:
            return
        self._monitor_backfill(node_id)
        self._monitor_active.add(node_id)

    def _monitor_node_unobservable(self, node_id: int) -> None:
        """The node crashed or entered quarantine: freeze its stamp where
        an eager monitor would have left it and veto back-fills until it
        is observable again."""
        self._monitor_backfill(node_id)
        self._observable_since[node_id] = float("inf")

    # ------------------------------------------------------------------ #
    # Scheduling passes

    def request_schedule(self) -> None:
        """Coalesce pass requests: at most one pass per simulation instant."""
        if self._pass_pending:
            return
        self._pass_pending = True
        self.engine.schedule(
            self.engine.now,
            self._run_pass,
            priority=EventPriority.SCHEDULE,
            tag="schedule-pass",
        )

    def _run_pass(self) -> None:
        self._pass_pending = False
        if self.scheduler.can_skip_pass(self.cluster):
            # Incremental fast path: nothing relevant changed since the
            # last pass, so schedule() would provably return zero
            # decisions.  The pass *event* still fired (event counts and
            # ordering stay byte-identical); only its cost is booked
            # under a distinct profiling category.
            self.engine.recategorize_current_event("schedule-skip")
            return
        decisions = self.scheduler.schedule(self.cluster, self.engine.now)
        for decision in decisions:
            self._execute(decision)

    def _execute(self, decision: Decision) -> None:
        if isinstance(decision, StartDecision):
            self._start_job(decision.job, list(decision.placements))
        elif isinstance(decision, PreemptDecision):
            self._execute_preempt(decision)
        else:
            raise TypeError(f"unknown decision type: {type(decision).__name__}")

    # ------------------------------------------------------------------ #
    # Arrivals and starts

    def _on_arrival(self, job: Job) -> None:
        now = self.engine.now
        self.collector.job_submitted(job, now)
        self._audit("submitted", job)
        self.scheduler.submit(job, now)
        self.request_schedule()

    def _start_job(
        self, job: Job, placements: Sequence[Tuple[int, int, int]]
    ) -> None:
        allocation = self.cluster.allocate(
            job.job_id, [(n, c, g) for n, c, g in placements]
        )
        now = self.engine.now
        if isinstance(job, GpuJob):
            self._start_gpu_job(job, allocation, now)
        elif isinstance(job, CpuJob):
            self._start_cpu_job(job, allocation, now)
        else:
            raise TypeError(f"unknown job type: {type(job).__name__}")
        self.scheduler.job_started(job, placements, now)

    def _start_gpu_job(
        self, job: GpuJob, allocation: Allocation, now: float
    ) -> None:
        profile = get_model(job.model_name)
        cores = allocation.shares[0].cpus
        demand = memory_bandwidth_demand(profile, job.setup, cores)
        pcie = pcie_peak_demand(profile, job.setup)
        for share in allocation.shares:
            self.cluster.node(share.node_id).register_memory_traffic(
                job.job_id,
                demand,
                is_cpu_job=False,
                llc_mb=GPU_JOB_LLC_MB,
                pcie_gbps=pcie,
            )
        work_done = self._stashed_progress.pop(job.job_id, 0.0)
        record = _RunningGpu(
            job=job,
            profile=profile,
            cores_per_node=cores,
            work_done=work_done,
            speed=0.0,
            utilization=0.0,
            last_update=now,
            completion=None,  # type: ignore[arg-type]
        )
        self._running_gpu[job.job_id] = record
        self.collector.job_started(job.job_id, now, cores)
        self._audit(
            "started",
            job,
            cores_per_node=cores,
            nodes=list(allocation.node_ids),
            model=job.model_name,
        )
        self._reprice_gpu(record)
        self._refresh_nodes(set(allocation.node_ids))

    def _start_cpu_job(
        self, job: CpuJob, allocation: Allocation, now: float
    ) -> None:
        share = allocation.shares[0]
        node = self.cluster.node(share.node_id)
        node.register_memory_traffic(
            job.job_id,
            job.bw_demand_gbps,
            is_cpu_job=True,
            is_inference=job.is_inference,
            llc_mb=job.llc_mb,
        )
        record = _RunningCpu(
            job=job,
            node_id=share.node_id,
            cores=share.cpus,
            work_done=0.0,
            speed=0.0,
            last_update=now,
            completion=None,  # type: ignore[arg-type]
        )
        self._running_cpu[job.job_id] = record
        self._monitor_activate(share.node_id)
        self._cpu_incarnation[job.job_id] = (
            self._cpu_incarnation.get(job.job_id, 0) + 1
        )
        self.collector.job_started(job.job_id, now, share.cpus)
        self._audit("started", job, cores=share.cpus, nodes=[share.node_id])
        self._reprice_cpu(record)
        self._refresh_nodes({share.node_id})

    # ------------------------------------------------------------------ #
    # Progress-based execution

    def _gpu_contention(self, job_id: str) -> ContentionState:
        """Worst-case contention across the job's nodes: iterations are
        paced by the slowest participant."""
        allocation = self.cluster.allocation_of(job_id)
        grant, pressure, llc, pcie = 1.0, 0.0, 0.0, 1.0
        for share in allocation.shares:
            node = self.cluster.node(share.node_id)
            grant = min(grant, node.bandwidth.grant_ratio(job_id))
            pressure = max(pressure, node.bandwidth.pressure)
            llc = max(llc, node.llc_pressure)
            pcie = min(pcie, node.pcie.grant_ratio())
        grant = max(grant, 1e-6)
        return ContentionState(
            bw_grant_ratio=grant,
            node_bw_pressure=pressure,
            llc_pressure=llc,
            pcie_grant_ratio=pcie,
        )

    def _accrue(
        self, record: "Union[_RunningGpu, _RunningCpu]", now: float
    ) -> None:
        span = now - record.last_update
        if span > 0:
            record.work_done += record.speed * span
        record.last_update = now

    def _reprice_gpu(self, record: _RunningGpu) -> None:
        """Re-price a training job's speed and re-aim its completion.

        ``state_memo`` keeps repeated touches cheap without changing a
        single computed value: when the derived :class:`ContentionState`
        lands on the same effect key as last time, the ``iteration_time``
        call (a pure function of that key) and the idempotent utilization
        re-writes are skipped.
        """
        now = self.engine.now
        job_id = record.job.job_id
        allocation = record.allocation
        if allocation is None:
            # First reprice of this record (fresh start or checkpoint
            # restore): pin the allocation, its interconnect, and the
            # participating Node objects, all fixed for the record's
            # lifetime.
            allocation = record.allocation = self.cluster.allocation_of(job_id)
            record.interconnect = self.cluster.fabric.for_nodes(
                allocation.node_ids
            )
            record.nodes = [
                self.cluster.node(share.node_id)
                for share in allocation.shares
            ]
        nodes = record.nodes
        self._accrue(record, now)
        # Worst-case contention across the job's nodes (iterations are
        # paced by the slowest participant), inlined over the pinned
        # Node list.
        grant, pressure, llc, pcie = 1.0, 0.0, 0.0, 1.0
        for node in nodes:
            bandwidth = node.bandwidth
            grant = min(grant, bandwidth.grant_ratio(job_id))
            pressure = max(pressure, bandwidth.pressure)
            llc = max(llc, node.llc_pressure)
            pcie = min(pcie, node.pcie.grant_ratio())
        contention = ContentionState(
            bw_grant_ratio=max(grant, 1e-6),
            node_bw_pressure=pressure,
            llc_pressure=llc,
            pcie_grant_ratio=pcie,
        )
        state_key = (record.cores_per_node,) + effect_key(contention)
        if self._reference or state_key != record.state_memo:
            breakdown = iteration_time(
                record.profile,
                record.job.setup,
                record.cores_per_node,
                contention,
                interconnect=record.interconnect,
            )
            record.speed = 1.0 / breakdown.total_s
            record.utilization = breakdown.utilization
            for node in nodes:
                node.set_gpu_utilization(job_id, record.utilization)
            record.state_memo = state_key
        self._aim_gpu_completion(record, now)

    def _aim_gpu_completion(self, record: _RunningGpu, now: float) -> None:
        job_id = record.job.job_id
        remaining = record.job.total_iterations - record.work_done
        target = now + max(0.0, remaining / record.speed)
        record.completion_time = target
        completion = record.completion
        if completion is not None:
            if not self._reference and target >= completion.time:
                # Completion moved later (or held): leave the armed timer
                # alone.  It fires stale, detects that completion_time is
                # still ahead, and re-arms itself (validate-on-pop) —
                # cheaper than a cancel+push on every node touch.
                return
            completion.cancel()
        record.completion = self.engine.schedule(
            target,
            lambda job_id=job_id: self._on_gpu_complete(job_id),
            priority=EventPriority.COMPLETION,
            tag=f"gpu-done:{job_id}",
        )

    def _reprice_cpu(self, record: _RunningCpu) -> None:
        now = self.engine.now
        node = record.node
        if node is None:
            # First reprice of this record (fresh start or checkpoint
            # restore): pin the home node, fixed for its lifetime.
            node = record.node = self.cluster.node(record.node_id)
        self._accrue(record, now)
        core_factor = record.cores / record.job.cores
        # HEAT-like jobs are pure bandwidth streamers and slow in direct
        # proportion to their grant; ordinary CPU jobs are mostly
        # compute-bound and only a small fraction of their work stalls.
        grant = node.bandwidth.grant_ratio(record.job.job_id)
        if record.job.is_heat:
            bw_factor = grant
        else:
            bw_factor = (1.0 - ORDINARY_CPU_BW_BOUND) + ORDINARY_CPU_BW_BOUND * grant
        record.speed = max(
            1e-9, core_factor * bw_factor * record.straggle_factor
        )
        self._aim_cpu_completion(record, now)

    def _aim_cpu_completion(self, record: _RunningCpu, now: float) -> None:
        job_id = record.job.job_id
        remaining = record.job.duration_s - record.work_done
        target = now + max(0.0, remaining / record.speed)
        record.completion_time = target
        completion = record.completion
        if completion is not None:
            if not self._reference and target >= completion.time:
                return  # later-moving completion: fire stale, re-arm then
            completion.cancel()
        record.completion = self.engine.schedule(
            target,
            lambda job_id=job_id: self._on_cpu_complete(job_id),
            priority=EventPriority.COMPLETION,
            tag=f"cpu-done:{job_id}",
        )

    def _refresh_nodes(self, node_ids: Set[int]) -> None:
        """Re-price every job touching the given nodes.

        Job ids land in lists (the ``seen`` set only guards against a
        multi-node gang appearing under several of its nodes; CPU jobs
        are single-node) and each list is sorted once — repricing keeps
        the sorted-job-id order the decision stream depends on without
        the build-a-set-then-``sorted()`` double sort this loop used to
        pay on every event.
        """
        gpu_ids: List[str] = []
        cpu_ids: List[str] = []
        seen: Set[str] = set()
        running_gpu = self._running_gpu
        running_cpu = self._running_cpu
        for node_id in sorted(node_ids):
            for job_id in self.cluster.node(node_id).jobs_here():
                if job_id in running_gpu:
                    if job_id not in seen:
                        seen.add(job_id)
                        gpu_ids.append(job_id)
                elif job_id in running_cpu:
                    cpu_ids.append(job_id)
        gpu_ids.sort()
        cpu_ids.sort()
        for job_id in gpu_ids:
            self._reprice_gpu(running_gpu[job_id])
        for job_id in cpu_ids:
            self._reprice_cpu(running_cpu[job_id])

    # ------------------------------------------------------------------ #
    # Completions and preemptions

    def _stale_completion_fire(self, record, tag_family: str, rearm) -> bool:
        """Validate-on-pop for lazy completion timers.

        Repricing that moves a completion *later* leaves the armed event
        in place (see ``_aim_*_completion``); when that event fires the
        record's authoritative ``completion_time`` is still ahead, so the
        fire is stale: re-arm at the authoritative time, count it, and
        book the (tiny) cost under the ``completion-stale`` profiler
        category so completion accounting stays honest.  In reference
        mode armed time always equals ``completion_time`` and this never
        triggers.
        """
        job_id = record.job.job_id
        if record.completion_time <= self.engine.now:
            return False
        record.completion = self.engine.schedule(
            record.completion_time,
            rearm,
            priority=EventPriority.COMPLETION,
            tag=f"{tag_family}:{job_id}",
        )
        self._stale_timer_fires += 1
        self.engine.recategorize_current_event("completion-stale")
        return True

    def _on_gpu_complete(self, job_id: str) -> None:
        record = self._running_gpu[job_id]
        if self._stale_completion_fire(
            record,
            "gpu-done",
            lambda job_id=job_id: self._on_gpu_complete(job_id),
        ):
            return
        del self._running_gpu[job_id]
        now = self.engine.now
        allocation = self.cluster.release(job_id)
        self.collector.job_finished(job_id, now)
        self._audit(
            "finished",
            record.job,
            cores_per_node=record.cores_per_node,
            queueing_s=self.collector.records[job_id].queueing_time,
        )
        self.scheduler.job_finished(record.job, now)
        self._refresh_nodes(set(allocation.node_ids))
        self.request_schedule()

    def _on_cpu_complete(self, job_id: str) -> None:
        record = self._running_cpu[job_id]
        if self._stale_completion_fire(
            record,
            "cpu-done",
            lambda job_id=job_id: self._on_cpu_complete(job_id),
        ):
            return
        del self._running_cpu[job_id]
        now = self.engine.now
        self.cluster.release(job_id)
        self.collector.job_finished(job_id, now)
        self._audit(
            "finished",
            record.job,
            cores=record.cores,
            queueing_s=self.collector.records[job_id].queueing_time,
        )
        self.scheduler.job_finished(record.job, now)
        self._refresh_nodes({record.node_id})
        self.request_schedule()

    def _execute_preempt(self, decision: PreemptDecision) -> None:
        job_id = decision.job_id
        now = self.engine.now
        if job_id in self._running_gpu:
            gpu_record = self._running_gpu.pop(job_id)
            self._accrue(gpu_record, now)
            gpu_record.completion.cancel()
            if decision.preserve_progress:
                self._stashed_progress[job_id] = gpu_record.work_done
            allocation = self.cluster.release(job_id)
            touched = set(allocation.node_ids)
            job: Job = gpu_record.job
            preserve = decision.preserve_progress
        elif job_id in self._running_cpu:
            cpu_record = self._running_cpu.pop(job_id)
            cpu_record.completion.cancel()
            allocation = self.cluster.release(job_id)
            touched = set(allocation.node_ids)
            job = cpu_record.job
            preserve = False  # aborted CPU jobs restart from scratch
        else:
            raise RuntimeError(f"cannot preempt {job_id}: not running")
        self._preemptions += 1
        self.collector.job_preempted(job_id, now)
        self._audit(
            "preempted",
            job,
            reason=decision.reason,
            progress_preserved=preserve,
        )
        self.scheduler.job_preempted(job, now, preserve_progress=preserve)
        self._refresh_nodes(touched)

    # ------------------------------------------------------------------ #
    # Infrastructure failures (driven by a FaultInjector)

    def fail_node(self, node_id: int) -> None:
        """Crash a node: kill every resident job, then take the node out
        of the free pool until :meth:`recover_node`.

        Training jobs restart from their last checkpoint; CPU jobs restart
        from scratch.  Both re-enter their array head via the scheduler's
        ``job_failed`` hook.  A multi-node gang dies whole — iterations
        cannot proceed minus one participant — and its surviving nodes are
        freed immediately.
        """
        node = self.cluster.node(node_id)
        if not node.is_up:
            return
        for job_id in sorted(node.jobs_here()):
            self._execute_failure(job_id, reason=f"node {node_id} crashed")
        self._monitor_node_unobservable(node_id)
        node.mark_down()
        self.collector.faults.node_failures += 1
        self.collector.faults.node_down(node_id, self.engine.now)
        self._record_node_strike(node_id, kind="crash")
        self.request_schedule()

    def recover_node(self, node_id: int) -> None:
        """Return a crashed node to service; queued jobs may use it on the
        next scheduling pass."""
        node = self.cluster.node(node_id)
        if node.is_up:
            return
        now = self.engine.now
        node.mark_up()
        self.collector.faults.node_up(node_id, now)
        if node_id not in self.health.quarantined_nodes(now):
            # Observable again from this instant; a node still serving a
            # quarantine stays vetoed until _on_quarantine_end.
            self._observable_since[node_id] = now
        self.request_schedule()

    def fail_gpu(self, node_id: int, gpu_id: int) -> None:
        """Break a single GPU; its owner (if any) takes the failure path."""
        node = self.cluster.node(node_id)
        gpu = node.gpus[gpu_id]
        if gpu.failed:
            return
        owner = gpu.owner
        if owner is not None:
            self._execute_failure(
                owner, reason=f"gpu {node_id}:{gpu_id} failed"
            )
        node.fail_gpu(gpu_id)
        self.collector.faults.gpu_failures += 1
        self._record_node_strike(node_id, kind="gpu")
        self.request_schedule()

    def repair_gpu(self, node_id: int, gpu_id: int) -> None:
        self.cluster.node(node_id).repair_gpu(gpu_id)
        self.request_schedule()

    def begin_telemetry_outage(self, node_id: int, duration_s: float) -> None:
        """Blind a node's MBM for ``duration_s``; the eliminator's
        staleness window decides when that blindness becomes distrust."""
        self._monitor_activate(node_id)
        self.cluster.node(node_id).bandwidth.begin_outage(
            self.engine.now + duration_s
        )
        self.collector.faults.telemetry_dropouts += 1
        self._record_node_strike(node_id, kind="telemetry")

    def running_cpu_job_ids(self) -> List[str]:
        return list(self._running_cpu)

    def apply_cpu_straggler(
        self, job_id: str, *, factor: float, duration_s: float
    ) -> None:
        """Slow a running CPU job to ``factor`` of its speed for a while."""
        record = self._running_cpu.get(job_id)
        if record is None:
            return
        record.straggle_factor = factor
        self.collector.faults.stragglers += 1
        self._audit("straggler", record.job, factor=factor)
        self._reprice_cpu(record)
        # The tag carries the incarnation (for the heal check) and a
        # global straggle counter (for uniqueness when the same job is
        # straggled twice), so a checkpoint restore can rebuild this
        # closure from the live-event inventory alone.
        self._straggle_count += 1
        incarnation = self._cpu_incarnation[job_id]
        self.engine.schedule_in(
            duration_s,
            lambda job_id=job_id, incarnation=incarnation: self._end_straggler(
                job_id, incarnation
            ),
            priority=EventPriority.MONITOR,
            tag=f"straggler-end:{job_id}:{incarnation}:{self._straggle_count}",
        )

    def _end_straggler(self, job_id: str, incarnation: int) -> None:
        # Only heal the same incarnation: if the job finished or restarted
        # meanwhile, the stale timer must not touch the new record.
        record = self._running_cpu.get(job_id)
        if record is None or self._cpu_incarnation.get(job_id) != incarnation:
            return
        record.straggle_factor = 1.0
        self._reprice_cpu(record)

    def _record_node_strike(self, node_id: int, *, kind: str) -> None:
        """Charge one failure strike against a node's health record.

        When the strike tips the node into quarantine: evict any resident
        jobs with progress preserved (their software is fine; their
        neighbourhood is not), count the quarantine, and schedule a
        scheduling pass at readmission time so queued work re-discovers
        the node the moment it leaves quarantine.
        """
        now = self.engine.now
        if not self.health.record_failure(node_id, now, kind=kind):
            return
        self.collector.faults.quarantines += 1
        self._monitor_node_unobservable(node_id)
        node = self.cluster.node(node_id)
        if node.is_up:
            for job_id in sorted(node.jobs_here()):
                self._execute_preempt(
                    PreemptDecision(
                        job_id=job_id,
                        reason=f"node {node_id} quarantined",
                        preserve_progress=True,
                    )
                )
        self.engine.schedule(
            self.health.quarantine_until(node_id),
            lambda node_id=node_id: self._on_quarantine_end(node_id),
            priority=EventPriority.MONITOR,
            tag=f"quarantine-end:{node_id}",
        )
        self.request_schedule()

    def _on_quarantine_end(self, node_id: int) -> None:
        """A quarantine expired (the node is on probation now); let the
        scheduler re-discover its capacity.

        The health tracker's lazy QUARANTINED->PROBATION transition is a
        pure function of time, so no node mutator runs here — record the
        capacity return explicitly or the incremental pass gates would
        never see it."""
        self.cluster.note_capacity_freed(node_id)
        if self.cluster.node(node_id).is_up:
            # Observable again (a node that also crashed stays vetoed
            # until recover_node readmits it).
            self._observable_since[node_id] = self.engine.now
        self.request_schedule()

    def _execute_failure(self, job_id: str, *, reason: str) -> None:
        """Kill one running job because its hardware failed."""
        now = self.engine.now
        if job_id in self._running_gpu:
            gpu_record = self._running_gpu.pop(job_id)
            self._accrue(gpu_record, now)
            gpu_record.completion.cancel()
            checkpoint = gpu_record.job.checkpointed_iterations(
                gpu_record.work_done
            )
            self.collector.faults.lost_gpu_iterations += max(
                0.0, gpu_record.work_done - checkpoint
            )
            if checkpoint > 0:
                self._stashed_progress[job_id] = checkpoint
            else:
                self._stashed_progress.pop(job_id, None)
            allocation = self.cluster.release(job_id)
            touched = set(allocation.node_ids)
            job: Job = gpu_record.job
        elif job_id in self._running_cpu:
            cpu_record = self._running_cpu.pop(job_id)
            self._accrue(cpu_record, now)
            cpu_record.completion.cancel()
            self.collector.faults.lost_cpu_seconds += cpu_record.work_done
            allocation = self.cluster.release(job_id)
            touched = set(allocation.node_ids)
            job = cpu_record.job
        else:
            return  # already gone (e.g., completed at this same instant)
        self.collector.faults.restarts += 1
        self.collector.job_failed(job_id, now)
        self._audit("failed", job, reason=reason)
        self.scheduler.job_failed(job, now)
        self._refresh_nodes(touched)

    # ------------------------------------------------------------------ #
    # Sampling

    def _on_sample(self) -> None:
        pending = self.scheduler.pending_jobs()
        gpu_depth = sum(1 for job in pending if job.kind is JobKind.GPU)
        cpu_depth = len(pending) - gpu_depth
        total_gpus = self.cluster.total.gpus
        free_fraction = (
            (total_gpus - self.cluster.gpu_active_count()) / total_gpus
            if total_gpus
            else 0.0
        )
        hot_nodes = sum(
            1
            for node in self.cluster.nodes
            if node.used_gpus > 0
            and node.bandwidth.pressure >= BANDWIDTH_PRESSURE_THRESHOLD
        )
        self.collector.sample_cluster(
            self.engine.now,
            gpu_active_rate=self.cluster.gpu_active_rate(),
            gpu_utilization=self.cluster.mean_gpu_utilization(active_only=True),
            gpu_utilization_overall=self.cluster.mean_gpu_utilization(
                active_only=False
            ),
            cpu_active_rate=self.cluster.cpu_active_rate(),
            gpu_queue_depth=gpu_depth,
            cpu_queue_depth=cpu_depth,
            free_gpu_fraction=free_fraction,
            hot_nodes=hot_nodes,
        )
        self.engine.schedule_in(
            self._sample_interval_s,
            self._on_sample,
            priority=EventPriority.MONITOR,
            tag="sample",
        )

    # ------------------------------------------------------------------ #
    # Checkpoint / restore

    def snapshot(self) -> Dict[str, Any]:
        """Serializable runner-core state (running jobs, pass flags).

        Model profiles are re-derived from the catalog and completion
        handles are reconnected by :meth:`rearm`, so neither serializes.
        """
        return {
            "running_gpu": {
                job_id: [
                    r.cores_per_node,
                    r.work_done,
                    r.speed,
                    r.utilization,
                    r.last_update,
                    r.completion_time,
                ]
                for job_id, r in self._running_gpu.items()
            },
            "running_cpu": {
                job_id: [
                    r.node_id,
                    r.cores,
                    r.work_done,
                    r.speed,
                    r.last_update,
                    r.straggle_factor,
                    r.completion_time,
                ]
                for job_id, r in self._running_cpu.items()
            },
            "stashed_progress": dict(self._stashed_progress),
            "pass_pending": self._pass_pending,
            "preemptions": self._preemptions,
            "sampling": self._sampling,
            "cpu_incarnation": dict(self._cpu_incarnation),
            "straggle_count": self._straggle_count,
            "stale_timer_fires": self._stale_timer_fires,
            "monitor_active": sorted(self._monitor_active),
            "monitor_last_tick": self._monitor_last_tick,
            # +inf is not valid JSON; carry the unobservable veto as null.
            "observable_since": [
                [node_id, None if since == float("inf") else since]
                for node_id, since in sorted(self._observable_since.items())
            ],
        }

    def restore(self, state: Dict[str, Any], jobs_by_id: Dict[str, Job]) -> None:
        self._running_gpu = {}
        for job_id, fields in state["running_gpu"].items():
            (
                cores,
                work_done,
                speed,
                utilization,
                last_update,
                completion_time,
            ) = fields
            job = jobs_by_id[job_id]
            assert isinstance(job, GpuJob)
            # Memos start cold: the first reprice recomputes everything
            # from restored cluster state, which is bit-identical because
            # iteration_time is pure.
            self._running_gpu[job_id] = _RunningGpu(
                job=job,
                profile=get_model(job.model_name),
                cores_per_node=int(cores),
                work_done=float(work_done),
                speed=float(speed),
                utilization=float(utilization),
                last_update=float(last_update),
                completion=None,  # type: ignore[arg-type]
                completion_time=float(completion_time),
            )
        self._running_cpu = {}
        for job_id, fields in state["running_cpu"].items():
            (
                node_id,
                cores,
                work_done,
                speed,
                last_update,
                straggle,
                completion_time,
            ) = fields
            job = jobs_by_id[job_id]
            assert isinstance(job, CpuJob)
            self._running_cpu[job_id] = _RunningCpu(
                job=job,
                node_id=int(node_id),
                cores=int(cores),
                work_done=float(work_done),
                speed=float(speed),
                last_update=float(last_update),
                completion=None,  # type: ignore[arg-type]
                straggle_factor=float(straggle),
                completion_time=float(completion_time),
            )
        self._stashed_progress = {
            job_id: float(progress)
            for job_id, progress in state["stashed_progress"].items()
        }
        self._pass_pending = bool(state["pass_pending"])
        self._preemptions = int(state["preemptions"])
        self._sampling = bool(state["sampling"])
        self._cpu_incarnation = {
            job_id: int(count)
            for job_id, count in state["cpu_incarnation"].items()
        }
        self._straggle_count = int(state["straggle_count"])
        self._stale_timer_fires = int(state["stale_timer_fires"])
        self._monitor_active = {int(n) for n in state["monitor_active"]}
        raw_tick = state["monitor_last_tick"]
        self._monitor_last_tick = None if raw_tick is None else float(raw_tick)
        self._observable_since = {
            int(n): float("inf") if since is None else float(since)
            for n, since in state["observable_since"]
        }

    def rearm(self, jobs_by_id: Dict[str, Job]) -> None:
        """Re-claim every runner-owned timer from the engine inventory.

        Runs inside an engine restore window, after :meth:`restore`;
        completion handles are wired back into their running records, and
        a final pass verifies no running job was left without one.
        """
        engine = self.engine
        for tag in engine.pending_rearm_tags():
            family = tag.partition(":")[0]
            if family == "arrival":
                job = jobs_by_id[tag.partition(":")[2]]
                engine.rearm(tag, lambda job=job: self._on_arrival(job))
            elif tag == "sample":
                engine.rearm(tag, self._on_sample)
            elif tag == "schedule-pass":
                engine.rearm(tag, self._run_pass)
            elif family == "gpu-done":
                job_id = tag.partition(":")[2]
                self._running_gpu[job_id].completion = engine.rearm(
                    tag, lambda job_id=job_id: self._on_gpu_complete(job_id)
                )
            elif family == "cpu-done":
                job_id = tag.partition(":")[2]
                self._running_cpu[job_id].completion = engine.rearm(
                    tag, lambda job_id=job_id: self._on_cpu_complete(job_id)
                )
            elif family == "straggler-end":
                _, job_id, incarnation, _count = tag.split(":")
                engine.rearm(
                    tag,
                    lambda job_id=job_id, incarnation=int(
                        incarnation
                    ): self._end_straggler(job_id, incarnation),
                )
            elif family == "quarantine-end":
                node_id = int(tag.partition(":")[2])
                engine.rearm(
                    tag,
                    lambda node_id=node_id: self._on_quarantine_end(node_id),
                )
        for job_id, gpu_record in self._running_gpu.items():
            if gpu_record.completion is None:
                raise RuntimeError(
                    f"restore left running GPU job {job_id} without a "
                    "completion event"
                )
        for job_id, cpu_record in self._running_cpu.items():
            if cpu_record.completion is None:
                raise RuntimeError(
                    f"restore left running CPU job {job_id} without a "
                    "completion event"
                )
