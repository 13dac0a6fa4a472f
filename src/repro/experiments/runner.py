"""The simulation driver.

:class:`SimulationRunner` executes a job trace under a scheduling policy on
a simulated cluster:

* arrivals and completions are discrete events;
* every running job, trainer or CPU job, is one record in one table.  It
  carries (work_done, speed, last_update) toward its ``total_work``, and
  its progress at ``now`` is ``work_done + speed * (now - last_update)``.
  A change of the inputs its speed reads — its own cores or grant ratio,
  or its nodes' post-knee bandwidth, LLC or PCIe contention — re-prices
  it; only pricing differs by kind (the pipeline model for trainers,
  grant ratio and straggling for CPU jobs).  Only a speed that actually
  moved accrues progress and re-aims the completion event.  One path
  aims, fires and validates completion timers for both kinds, and one
  stop path takes a job off the cluster on completion, preemption or
  failure.  This progress-based execution is what lets contention and
  adaptive allocation show up in end-to-end latencies;
* the runner implements :class:`~repro.schedulers.base.SchedulerContext`,
  the runtime-control surface CODA's allocator and eliminator act through.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    ClassVar,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.cluster.allocation import Allocation
from repro.cluster.cluster import Cluster
from repro.cluster.node import Node
from repro.health.config import HealthConfig
from repro.health.tracker import NodeHealthTracker
from repro.metrics.collector import MetricsCollector
from repro.perfmodel.bandwidth import memory_bandwidth_demand
from repro.perfmodel.catalog import ModelProfile, get_model
from repro.perfmodel.contention import (
    BANDWIDTH_PRESSURE_THRESHOLD,
    ContentionState,
    effect_key,
    node_effect_key,
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
class _Running:
    """A running job's progress toward ``total_work`` (iterations for a
    trainer, seconds of full-speed work for a CPU job): at ``now`` it has
    done ``work_done + speed * (now - last_update)``."""

    #: Tag family of the job's completion event.
    done_tag: ClassVar[str]
    #: Audit-log key its cores are reported under.
    cores_key: ClassVar[str]
    job: Job
    #: Cores on each of its nodes (a CPU job has one node).
    cores: int
    work_done: float
    speed: float
    last_update: float
    total_work: float
    #: Authoritative completion time.  The armed heap event may lag behind
    #: (fire earlier) when repricing moved the completion later: the stale
    #: fire detects ``completion_time > now`` and re-arms (validate-on-pop,
    #: the ShareHeap idiom).  Invariant: armed time <= completion_time.
    completion_time: float
    #: The armed completion event; None until the first pricing arms it
    #: (after a checkpoint restore, until ``SimulationRunner.rearm``).
    completion: Optional[EventHandle] = field(init=False, default=None)


@dataclass
class _RunningGpu(_Running):
    done_tag = "gpu-done"
    cores_key = "cores_per_node"
    job: GpuJob
    profile: ModelProfile
    utilization: float
    #: The job's interconnect and participating Node objects, both fixed
    #: for the record's lifetime (a restarted job gets a fresh record);
    #: pinned to keep per-reprice dict lookups off the hot path.
    interconnect: Any = None
    nodes: Optional[List[Node]] = None


@dataclass
class _RunningCpu(_Running):
    done_tag = "cpu-done"
    cores_key = "cores"
    job: CpuJob
    node_id: int
    #: Fault-injected slowdown (1.0 = healthy); multiplies the speed.
    straggle_factor: float = 1.0
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


def _worst_contention(job_id: str, nodes: Sequence[Node]) -> ContentionState:
    """Worst-case contention across a job's nodes: iterations are paced
    by the slowest participant."""
    grant, pressure, llc, pcie = 1.0, 0.0, 0.0, 1.0
    for node in nodes:
        bandwidth = node.bandwidth
        grant = min(grant, bandwidth.grant_ratio(job_id))
        pressure = max(pressure, bandwidth.pressure)
        llc = max(llc, node.llc_pressure)
        pcie = min(pcie, node.pcie.grant_ratio())
    return ContentionState(
        bw_grant_ratio=max(grant, 1e-6),
        node_bw_pressure=pressure,
        llc_pressure=llc,
        pcie_grant_ratio=pcie,
    )


def _node_effect_key(node: Node) -> Tuple[float, ...]:
    """The node's part of every resident trainer's effect key."""
    return node_effect_key(
        node.bandwidth.pressure, node.llc_pressure, node.pcie.grant_ratio()
    )


def _cpu_speed(record: _RunningCpu, grant: float) -> float:
    """A CPU job's speed at bandwidth grant ratio ``grant``.

    HEAT-like jobs are pure bandwidth streamers and slow in direct
    proportion to their grant; ordinary CPU jobs are mostly compute-bound
    and only a small fraction of their work stalls.
    """
    if record.job.is_heat:
        bw_factor = grant
    else:
        bw_factor = (1.0 - ORDINARY_CPU_BW_BOUND) + ORDINARY_CPU_BW_BOUND * grant
    core_factor = record.cores / record.job.cores
    return max(1e-9, core_factor * bw_factor * record.straggle_factor)


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
        self._running: Dict[str, _Running] = {}
        self._stashed_progress: Dict[str, float] = {}
        self._pass_pending = False
        self._preemptions = 0
        self._sampling = False
        #: Per-job start counter distinguishing incarnations of a restarted
        #: CPU job, so straggler-heal timers (whose tags carry the
        #: incarnation) never touch a successor of the record they slowed.
        self._cpu_incarnation: Dict[str, int] = {}
        self._straggle_count = 0
        #: Reference mode (``REPRO_REFERENCE=1``): re-price every resident
        #: of a touched node from scratch, cancel+reschedule a completion
        #: whenever its speed moves, and tick every node — the pre-lazy
        #: behaviour.  Read once at construction (parity tests set the env
        #: var per runner, never mid-run).
        self._reference = reference_mode()
        self._stale_timer_fires = 0
        #: Run-scoped ``iteration_time`` memo: (model name, setup, cores
        #: per node, contention effect key, interconnect) -> (speed,
        #: utilization).  Every key part is a frozen value and the model
        #: is pure, so entries never go stale.  Emptied when run() returns;
        #: unused in reference mode.
        self._speed_memo: Dict[Tuple[Any, ...], Tuple[float, float]] = {}
        #: Each node's (bandwidth excess, LLC excess, PCIe grant ratio) at
        #: its last refresh; see :meth:`_refresh_nodes`.
        self._node_key_memo: Dict[int, Tuple[float, ...]] = {}
        #: Nodes the eliminator must tick: hosts of live throttles or of
        #: CPU jobs at or above the eliminator's bandwidth threshold, plus
        #: telemetry-outage nodes until a successful observe clears them.
        #: See the "Activity-indexed monitoring" section for the
        #: skip-soundness invariant.
        self._monitor_active: Set[int] = set()
        #: The threshold the pressure watch wakes nodes at; None until
        #: the eliminator installs it (and always under reference mode).
        self._monitor_threshold: Optional[float] = None
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
        # A finished runner can linger as cyclic garbage until the next
        # full collection; it need not hold the memo meanwhile.  A later
        # run() call refills it (the memo only saves model calls).
        self._speed_memo.clear()
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
        record = self._running.get(job_id)
        if not isinstance(record, _RunningGpu):
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
        record.cores = cpus_per_node
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
        # Cores are a speed input the grant ratio does not carry.
        self._refresh_nodes(touched, moved=job_id)
        return True

    def gpu_job_utilization(self, job_id: str) -> float:
        return self._gpu_record(job_id).utilization

    def gpu_job_expected_utilization(self, job_id: str) -> float:
        record = self._gpu_record(job_id)
        allocation = self.cluster.allocation_of(job_id)
        quiet = iteration_time(
            record.profile,
            record.job.setup,
            record.cores,
            interconnect=self.cluster.fabric.for_nodes(allocation.node_ids),
        )
        return quiet.utilization

    def throttle_cpu_job(self, job_id: str, node_id: int) -> bool:
        node = self.cluster.node(node_id)
        if not node.mba.supported:
            return False
        node.mba.throttle_down(job_id)
        self.collector.throttle_events += 1
        record = self._running.get(job_id)
        if isinstance(record, _RunningCpu):
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
        record = self._cpu_record(job_id)
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
        # Halving scales demand with cores, so an uncontended job keeps a
        # grant ratio of 1.0: name it, or the refresh would not see it.
        self._refresh_nodes({record.node_id}, moved=job_id)
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
    # The eliminator's per-node work is a no-op unless the node holds
    # live throttles or hosts CPU jobs at or above its bandwidth
    # threshold, so its tick iterates an incrementally maintained active
    # set instead of the whole cluster.  Skip-soundness invariant (IV011):
    # a node outside the set was up, unquarantined, telemetry-up,
    # throttle-free, and CPU-idle or below the threshold at every tick it
    # was skipped for — membership is granted *before* any of those can
    # stop holding (a telemetry outage begins, the pressure watch of
    # :meth:`monitor_watch_pressure` sees a CPU-hosting node reach the
    # threshold) and only revoked by the eliminator itself right after a
    # successful observe found nothing to do.  The only eager-tick state
    # a skipped node would have gained is its MBM sample timestamp, which
    # :meth:`_monitor_backfill` reconstructs whenever the invariant is
    # about to stop holding.

    def monitor_active_node_ids(self) -> Sequence[int]:
        if self._reference:
            return range(len(self.cluster.nodes))
        return sorted(self._monitor_active)

    def monitor_deactivate_node(self, node_id: int) -> None:
        if not self._reference:
            self._monitor_active.discard(node_id)

    def monitor_note_tick(self, now: float) -> None:
        self._monitor_last_tick = now

    def monitor_watch_pressure(self, threshold: float) -> None:
        if self._reference:
            return
        self._monitor_threshold = threshold
        for node in self.cluster.nodes:
            node.bandwidth.watch_pressure(
                threshold,
                lambda node_id=node.node_id: self._monitor_activate(node_id),
            )

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
            record = self._start_gpu_job(job, allocation, now)
        elif isinstance(job, CpuJob):
            record = self._start_cpu_job(job, allocation, now)
        else:
            raise TypeError(f"unknown job type: {type(job).__name__}")
        self._running[job.job_id] = record
        self.collector.job_started(job.job_id, now, allocation.shares[0].cpus)
        # Registration put the job in each node's changed-set, so the
        # refresh prices it.
        self._refresh_nodes(set(allocation.node_ids))
        self.scheduler.job_started(job, placements, now)

    def _start_gpu_job(
        self, job: GpuJob, allocation: Allocation, now: float
    ) -> _Running:
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
        self._audit(
            "started",
            job,
            cores_per_node=cores,
            nodes=list(allocation.node_ids),
            model=job.model_name,
        )
        return _RunningGpu(
            job=job,
            cores=cores,
            work_done=self._stashed_progress.pop(job.job_id, 0.0),
            speed=0.0,
            last_update=now,
            total_work=job.total_iterations,
            completion_time=0.0,
            profile=profile,
            utilization=0.0,
        )

    def _start_cpu_job(
        self, job: CpuJob, allocation: Allocation, now: float
    ) -> _Running:
        share = allocation.shares[0]
        self.cluster.node(share.node_id).register_memory_traffic(
            job.job_id,
            job.bw_demand_gbps,
            is_cpu_job=True,
            is_inference=job.is_inference,
            llc_mb=job.llc_mb,
        )
        self._cpu_incarnation[job.job_id] = (
            self._cpu_incarnation.get(job.job_id, 0) + 1
        )
        self._audit("started", job, cores=share.cpus, nodes=[share.node_id])
        return _RunningCpu(
            job=job,
            cores=share.cpus,
            work_done=0.0,
            speed=0.0,
            last_update=now,
            total_work=job.duration_s,
            completion_time=0.0,
            node_id=share.node_id,
        )

    # ------------------------------------------------------------------ #
    # Progress-based execution
    #
    # A job's speed is a pure function of its own cores, grant ratio and
    # (CPU jobs) straggle factor, and of its nodes' contention effect key
    # (bandwidth excess past the 75 % knee, LLC excess past 1.0, PCIe
    # grant ratio).  Progress accrues, and the completion timer moves,
    # only when a reprice finds a new speed: an unchanged speed leaves
    # ``work_done + speed * (now - last_update)`` and the completion time
    # exactly where they were.  So a reprice that cannot move the speed
    # can be skipped without changing a bit, and :meth:`_refresh_nodes`
    # reprices only jobs whose inputs moved (IV014 checks every priced
    # speed against a fresh recomputation).

    def _gpu_record(self, job_id: str) -> _RunningGpu:
        record = self._running.get(job_id)
        if not isinstance(record, _RunningGpu):
            raise KeyError(f"job {job_id} is not a running GPU job")
        return record

    def _cpu_record(self, job_id: str) -> _RunningCpu:
        record = self._running.get(job_id)
        if not isinstance(record, _RunningCpu):
            raise KeyError(f"job {job_id} is not a running CPU job")
        return record

    def fresh_gpu_price(self, job_id: str) -> Tuple[float, float]:
        """(speed, utilization) of a running GPU job, recomputed from
        current cluster state without memos or writes (IV014)."""
        record = self._gpu_record(job_id)
        allocation = self.cluster.allocation_of(job_id)
        breakdown = iteration_time(
            record.profile,
            record.job.setup,
            record.cores,
            _worst_contention(
                job_id, [self.cluster.node(n) for n in allocation.node_ids]
            ),
            interconnect=self.cluster.fabric.for_nodes(allocation.node_ids),
        )
        return 1.0 / breakdown.total_s, breakdown.utilization

    def fresh_cpu_speed(self, job_id: str) -> float:
        """A running CPU job's speed, recomputed from current cluster
        state without writes (IV014)."""
        record = self._cpu_record(job_id)
        node = self.cluster.node(record.node_id)
        return _cpu_speed(record, node.bandwidth.grant_ratio(job_id))

    def _accrue(self, record: _Running, now: float) -> None:
        span = now - record.last_update
        if span > 0:
            record.work_done += record.speed * span
        record.last_update = now

    def _reprice_gpu(self, record: _RunningGpu) -> None:
        """Re-price a training job; accrue and re-aim its completion only
        if its speed moved.

        ``_speed_memo`` returns the (speed, utilization) of an earlier
        ``iteration_time`` call with the same model, setup, cores,
        contention effect key and interconnect — bit-identical, because
        the model is pure.
        """
        job_id = record.job.job_id
        nodes = record.nodes
        fresh = nodes is None
        if nodes is None:
            # First reprice of this record (fresh start or checkpoint
            # restore): pin the interconnect and the participating Node
            # objects, both fixed for the record's lifetime.
            allocation = self.cluster.allocation_of(job_id)
            record.interconnect = self.cluster.fabric.for_nodes(
                allocation.node_ids
            )
            nodes = record.nodes = [
                self.cluster.node(share.node_id)
                for share in allocation.shares
            ]
        contention = _worst_contention(job_id, nodes)
        key: Optional[Tuple[Any, ...]] = None
        priced: Optional[Tuple[float, float]] = None
        if not self._reference:
            key = (
                record.job.model_name,
                record.job.setup,
                record.cores,
                effect_key(contention),
                record.interconnect,
            )
            priced = self._speed_memo.get(key)
        if priced is None:
            breakdown = iteration_time(
                record.profile,
                record.job.setup,
                record.cores,
                contention,
                interconnect=record.interconnect,
            )
            priced = (1.0 / breakdown.total_s, breakdown.utilization)
            if key is not None:
                self._speed_memo[key] = priced
        speed, utilization = priced
        if fresh or utilization != record.utilization:
            record.utilization = utilization
            for node in nodes:
                node.set_gpu_utilization(job_id, utilization)
        if speed != record.speed:
            self._aim_completion(record, speed)

    def _reprice_cpu(self, record: _RunningCpu) -> None:
        """Re-price a CPU job; accrue and re-aim only if its speed moved."""
        node = record.node
        if node is None:
            # First reprice of this record (fresh start or checkpoint
            # restore): pin the home node, fixed for its lifetime.
            node = record.node = self.cluster.node(record.node_id)
        speed = _cpu_speed(record, node.bandwidth.grant_ratio(record.job.job_id))
        if speed != record.speed:
            self._aim_completion(record, speed)

    def _aim_completion(self, record: _Running, speed: float) -> None:
        """Accrue progress at the old speed, adopt ``speed``, and move the
        completion to where it puts it."""
        now = self.engine.now
        self._accrue(record, now)
        record.speed = speed
        remaining = record.total_work - record.work_done
        target = now + max(0.0, remaining / record.speed)
        record.completion_time = target
        completion = record.completion
        if completion is not None:
            if not self._reference and target >= completion.time:
                # Completion moved later (or held): leave the armed timer
                # alone.  It fires stale and re-arms in _on_complete —
                # cheaper than a cancel+push on every speed change.
                return
            completion.cancel()
        self._arm_completion(record, target)

    def _arm_completion(self, record: _Running, when: float) -> None:
        job_id = record.job.job_id
        record.completion = self.engine.schedule(
            when,
            lambda job_id=job_id: self._on_complete(job_id),
            priority=EventPriority.COMPLETION,
            tag=f"{record.done_tag}:{job_id}",
        )

    def _refresh_nodes(
        self, node_ids: Set[int], moved: Optional[str] = None
    ) -> None:
        """Re-price the jobs on the given nodes whose speed inputs moved.

        Per node, the candidates are the jobs in its monitor's changed-set
        (grant ratio moved, or newly registered), plus every GPU resident
        when the node's contention key moved since its last refresh.  CPU
        speed reads no node-level contention, so a moved key leaves CPU
        residents alone.  Cores and straggle factors are not inputs the
        node sees: a resize names its job as ``moved``, and stragglers
        reprice directly.  Reference mode reprices every resident.

        Candidates are keyed by job id (a multi-node gang appears under
        several of its nodes) and repriced GPU first, each kind in
        sorted-job-id order.
        """
        gpu: Dict[str, _RunningGpu] = {}
        cpu: Dict[str, _RunningCpu] = {}
        running = self._running
        reference = self._reference
        key_memo = self._node_key_memo
        nodes = self.cluster.nodes
        # Almost every call names at most one node and one job of each
        # kind; sorting those would only copy them into a list.
        for node_id in node_ids if len(node_ids) < 2 else sorted(node_ids):
            node = nodes[node_id]
            changed = node.bandwidth.drain_changed()
            every_gpu = reference
            if not reference:
                key = _node_effect_key(node)
                if key != key_memo.get(node_id):
                    key_memo[node_id] = key
                    every_gpu = True
            for job_id in node.jobs_here() if every_gpu else changed:
                record = running.get(job_id)
                if isinstance(record, _RunningGpu):
                    gpu[job_id] = record
                elif isinstance(record, _RunningCpu) and (
                    reference or job_id in changed
                ):
                    cpu[job_id] = record
        if moved is not None:
            record = running.get(moved)
            if isinstance(record, _RunningGpu):
                gpu[moved] = record
            elif isinstance(record, _RunningCpu):
                cpu[moved] = record
        for job_id in gpu if len(gpu) < 2 else sorted(gpu):
            self._reprice_gpu(gpu[job_id])
        for job_id in cpu if len(cpu) < 2 else sorted(cpu):
            self._reprice_cpu(cpu[job_id])

    # ------------------------------------------------------------------ #
    # Completions, preemptions and failures

    def _stop(self, record: _Running, now: float) -> Set[int]:
        """Take a running job off the cluster: accrue its progress to
        ``now``, drop its completion timer and free its allocation.
        Returns the nodes it held."""
        job_id = record.job.job_id
        del self._running[job_id]
        self._accrue(record, now)
        if record.completion is not None:
            record.completion.cancel()
        return set(self.cluster.release(job_id).node_ids)

    def _on_complete(self, job_id: str) -> None:
        """A completion timer fired.

        Validate-on-pop: repricing that moves a completion *later* leaves
        the armed event in place (see :meth:`_aim_completion`), so the
        record's authoritative ``completion_time`` may still be ahead.
        Such a fire is stale: re-arm at the authoritative time, count it,
        and book its cost under the ``completion-stale`` profiler
        category so completion accounting stays honest.  In reference
        mode the armed time always equals ``completion_time`` and no fire
        is stale.
        """
        record = self._running[job_id]
        now = self.engine.now
        if record.completion_time > now:
            self._arm_completion(record, record.completion_time)
            self._stale_timer_fires += 1
            self.engine.recategorize_current_event("completion-stale")
            return
        touched = self._stop(record, now)
        self.collector.job_finished(job_id, now)
        self._audit(
            "finished",
            record.job,
            **{record.cores_key: record.cores},
            queueing_s=self.collector.records[job_id].queueing_time,
        )
        self.scheduler.job_finished(record.job, now)
        self._refresh_nodes(touched)
        self.request_schedule()

    def _execute_preempt(self, decision: PreemptDecision) -> None:
        job_id = decision.job_id
        record = self._running.get(job_id)
        if record is None:
            raise RuntimeError(f"cannot preempt {job_id}: not running")
        now = self.engine.now
        touched = self._stop(record, now)
        # Aborted CPU jobs restart from scratch.
        preserve = decision.preserve_progress and isinstance(record, _RunningGpu)
        if preserve:
            self._stashed_progress[job_id] = record.work_done
        self._preemptions += 1
        self.collector.job_preempted(job_id, now)
        self._audit(
            "preempted",
            record.job,
            reason=decision.reason,
            progress_preserved=preserve,
        )
        self.scheduler.job_preempted(record.job, now, preserve_progress=preserve)
        self._refresh_nodes(touched)

    def _execute_failure(self, job_id: str, *, reason: str) -> None:
        """Kill one running job because its hardware failed."""
        record = self._running.get(job_id)
        if record is None:
            return  # already gone (e.g., completed at this same instant)
        now = self.engine.now
        touched = self._stop(record, now)
        if isinstance(record, _RunningGpu):
            checkpoint = record.job.checkpointed_iterations(record.work_done)
            self.collector.faults.lost_gpu_iterations += max(
                0.0, record.work_done - checkpoint
            )
            if checkpoint > 0:
                self._stashed_progress[job_id] = checkpoint
            else:
                self._stashed_progress.pop(job_id, None)
        else:
            self.collector.faults.lost_cpu_seconds += record.work_done
        self.collector.faults.restarts += 1
        self.collector.job_failed(job_id, now)
        self._audit("failed", record.job, reason=reason)
        self.scheduler.job_failed(record.job, now)
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
        running = self._running
        return [j for j in running if isinstance(running[j], _RunningCpu)]

    def apply_cpu_straggler(
        self, job_id: str, *, factor: float, duration_s: float
    ) -> None:
        """Slow a running CPU job to ``factor`` of its speed for a while."""
        record = self._running.get(job_id)
        if not isinstance(record, _RunningCpu):
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
        record = self._running.get(job_id)
        if self._cpu_incarnation.get(job_id) == incarnation and isinstance(
            record, _RunningCpu
        ):
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

    # ------------------------------------------------------------------ #
    # Sampling

    def _on_sample(self) -> None:
        gpu_depth, cpu_depth = self.scheduler.queue_depths()
        gpu_utilization, gpu_utilization_overall = (
            self.cluster.gpu_utilization_means()
        )
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
            gpu_utilization=gpu_utilization,
            gpu_utilization_overall=gpu_utilization_overall,
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
                    r.cores,
                    r.work_done,
                    r.speed,
                    r.utilization,
                    r.last_update,
                    r.completion_time,
                ]
                for job_id, r in self._running.items()
                if isinstance(r, _RunningGpu)
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
                for job_id, r in self._running.items()
                if isinstance(r, _RunningCpu)
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
        # The first reprice after restore recomputes each speed from
        # restored cluster state; it equals the snapshotted speed (IV014),
        # so it accrues nothing and moves no timer.
        self._running = {}
        for job_id, fields in state["running_gpu"].items():
            cores, work_done, speed, utilization, last_update, done_at = fields
            job = jobs_by_id[job_id]
            assert isinstance(job, GpuJob)
            self._running[job_id] = _RunningGpu(
                job=job,
                cores=int(cores),
                work_done=float(work_done),
                speed=float(speed),
                last_update=float(last_update),
                total_work=job.total_iterations,
                completion_time=float(done_at),
                profile=get_model(job.model_name),
                utilization=float(utilization),
            )
        for job_id, fields in state["running_cpu"].items():
            node_id, cores, work_done, speed, last_update, straggle, done_at = fields
            job = jobs_by_id[job_id]
            assert isinstance(job, CpuJob)
            self._running[job_id] = _RunningCpu(
                job=job,
                cores=int(cores),
                work_done=float(work_done),
                speed=float(speed),
                last_update=float(last_update),
                total_work=job.duration_s,
                completion_time=float(done_at),
                node_id=int(node_id),
                straggle_factor=float(straggle),
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
        # A missing node key counts as moved: each node's first refresh
        # reprices its GPU residents, which finds their snapshotted speeds.
        self._node_key_memo = {}
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
            elif family in ("gpu-done", "cpu-done"):
                job_id = tag.partition(":")[2]
                self._running[job_id].completion = engine.rearm(
                    tag, lambda job_id=job_id: self._on_complete(job_id)
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
        for job_id, record in self._running.items():
            if record.completion is None:
                raise RuntimeError(
                    f"restore left running {record.job.kind.name} job "
                    f"{job_id} without a completion event"
                )
