"""The simulation driver.

:class:`SimulationRunner` executes a job trace under a scheduling policy on
a simulated cluster:

* arrivals and completions are discrete events;
* every running job's progress, speed and completion timer lives in one
  :class:`~repro.experiments.progress.Progress` table, which the runner
  starts and stops jobs through and tells which nodes' speed inputs
  moved;
* the runner implements :class:`~repro.schedulers.base.SchedulerContext`,
  the runtime-control surface CODA's allocator and eliminator act through,
  and handles node, GPU, telemetry and straggler faults and node health.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Set
from typing import Tuple

from repro.cluster.cluster import Cluster
from repro.health.config import HealthConfig
from repro.health.tracker import NodeHealthTracker
from repro.metrics.collector import MetricsCollector
from repro.perfmodel.bandwidth import memory_bandwidth_demand
from repro.perfmodel.contention import (
    BANDWIDTH_PRESSURE_THRESHOLD,
    UNCONTENDED,
)
from repro.perfmodel.speed import iteration_time
from repro.schedulers.base import (
    Decision,
    PreemptDecision,
    Scheduler,
    SchedulerContext,
    StartDecision,
)
from repro.sim.engine import Engine, Timer
from repro.sim.events import EventHandle, EventPriority
from repro.sim.state import BOOL, FLOAT, INF_OR_FLOAT, INT, JOB, JOB_ID, NESTED, NODE_ID
from repro.sim.state import STR, DictOf, Inline, Items, ListOf, Nullable, Pinned, Refs
from repro.sim.state import Scalar, Stateful, Struct
from repro.experiments.auditlog import AuditLog
from repro.experiments.progress import Progress, _Running, _RunningCpu, _RunningGpu
from repro.workload.job import Job, JobKind
from repro.workload.tracegen import Trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.invariants import InvariantAuditor
    from repro.faults.injector import FaultInjector

#: Bumped whenever ``RunResult.STATE`` changes; part of the result cache's
#: code fingerprint, so stale cache entries never load.
#: v2: RunResult gained ``stale_timer_fires`` (lazy completion timers).
#: v3: the collector's job table and series are packed columns.
RESULT_SCHEMA_VERSION = 3

#: Default cluster-state sampling cadence (the paper samples utilization
#: continuously; five minutes keeps week-long runs cheap and smooth).
DEFAULT_SAMPLE_INTERVAL_S = 300.0

ARRIVAL = Timer("arrival", JOB, priority=EventPriority.ARRIVAL)
SAMPLE = Timer("sample")
SCHEDULE_PASS = Timer("schedule-pass", priority=EventPriority.SCHEDULE)
#: A straggler's heal: the incarnation guards a restarted job, the global
#: straggle count keeps two heals of one job apart.
STRAGGLER_END = Timer("straggler-end", JOB_ID, INT, INT)
#: A quarantine's expiry: the scheduler re-discovers the node's capacity.
QUARANTINE_END = Timer("quarantine-end", NODE_ID)


@dataclass
class RunResult(Stateful):
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

    #: The format version a serialized result must repeat.
    schema = RESULT_SCHEMA_VERSION

    #: The serialized result (:mod:`repro.metrics.serialize`); an int
    #: horizon stays an int.
    STATE = Struct(
        ("scheduler_name", STR), ("horizon_s", Scalar(float, int)),
        ("finished_gpu_jobs", INT), ("finished_cpu_jobs", INT),
        ("preemptions", INT), ("events_fired", INT), ("restarts", INT),
        ("node_downtime_s", FLOAT), ("quarantines", INT), ("quarantine_s", FLOAT),
        ("dead_jobs", INT), ("flap_suppressions", INT), ("stale_timer_fires", INT),
        ("schema", Pinned(INT)), ("collector", NESTED),
    )

    def _before_load(self) -> None:
        # A decoded result is as finished as the run that made it: its
        # table is sealed while empty, and the load fills it sealed.
        self.collector.records.seal()


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


class SimulationRunner(SchedulerContext, Stateful):
    """Drives one (trace, scheduler, cluster) simulation."""

    def __init__(
        self,
        cluster: Cluster,
        scheduler: Scheduler,
        trace: Optional[Trace] = None,
        *,
        sample_interval_s: float = DEFAULT_SAMPLE_INTERVAL_S,
        audit: Optional["AuditLog"] = None,
        fault_injector: Optional["FaultInjector"] = None,
        auditor: Optional["InvariantAuditor"] = None,
        health_config: Optional[HealthConfig] = None,
    ) -> None:
        if sample_interval_s <= 0:
            raise ValueError(f"non-positive sample interval: {sample_interval_s}")
        self.cluster = cluster
        if health_config is not None:
            cluster.health = NodeHealthTracker(health_config)
        self.health = cluster.health
        self.scheduler = scheduler
        self.engine = Engine()
        self.collector = MetricsCollector()
        self.audit = audit
        self.fault_injector = fault_injector
        self.auditor = auditor if auditor is not None else _env_auditor()
        self._sample_interval_s = sample_interval_s
        #: Every running job's progress, priced through this module's
        #: ``iteration_time`` binding (read here once: a profiler wraps it).
        self.progress = Progress(
            self.engine, cluster, iteration_time, self._on_complete
        )
        declare = self.engine.declare
        declare(ARRIVAL, self._on_arrival, requires=self._unsubmitted)
        declare(
            SAMPLE, self._on_sample, requires=lambda _: [()] if self._sampling else []
        )
        declare(
            SCHEDULE_PASS,
            self._run_pass,
            requires=lambda _: [()] if self._pass_pending else [],
        )
        declare(STRAGGLER_END, self._end_straggler, requires=self._straggling)
        declare(QUARANTINE_END, self._on_quarantine_end, requires=self._quarantined)
        self._pass_pending = False
        self._preemptions = 0
        self._sampling = False
        #: Per-job start counter distinguishing incarnations of a restarted
        #: CPU job, so straggler-heal timers (whose tags carry the
        #: incarnation) never touch a successor of the record they slowed.
        self._cpu_incarnation: Dict[str, int] = {}
        self._straggle_count = 0
        #: Reference mode (``REPRO_REFERENCE=1``): tick every node, as
        #: :class:`Progress` reprices eagerly — the pre-lazy behaviour.
        self._reference = self.progress.reference
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
        if trace is not None:
            self.load_trace(trace)

    # ------------------------------------------------------------------ #
    # Setup

    def load_trace(self, trace: Trace) -> None:
        """Schedule every trace job's arrival event."""
        for job in trace.jobs:
            self.submit_at(job.submit_time, job)

    def submit_at(self, when: float, job: Job) -> None:
        self.engine.arm(ARRIVAL, when, job)

    def enable_sampling(self) -> None:
        """Start the periodic cluster-state sampler (idempotent)."""
        if self._sampling:
            return
        self._sampling = True
        self.engine.arm(SAMPLE, self.engine.now)

    def run(self, until: float) -> RunResult:
        """Run the simulation to the ``until`` horizon (seconds).

        Terminal: however the run ends, it detaches the runner (see
        :meth:`_detach`), and a second call raises ``RuntimeError``.
        """
        try:
            self.enable_sampling()
            self.engine.run(until=until)
            if self.auditor is not None:
                self.auditor.check_now()
            return self._result(until)
        finally:
            self._detach()

    def _detach(self) -> None:
        """Drop every reference the run's components hold back into it.

        Event actions, engine observers, the pressure watches, the
        completion callback and the scheduler's, fault injector's and
        auditor's runner handles are what close the runner's reference
        cycles; without them a finished runner frees by refcount, not at
        the next full collection.  Public state stays readable.
        """
        self.engine.detach()
        for node in self.cluster.nodes:
            node.bandwidth.unwatch_pressure()
        self.progress.detach()
        self.scheduler.detach()
        if self.fault_injector is not None:
            self.fault_injector.detach()
        if self.auditor is not None:
            self.auditor.detach()

    def _result(self, until: float) -> RunResult:
        self.collector.records.seal()
        return RunResult(
            scheduler_name=self.scheduler.name,
            collector=self.collector,
            horizon_s=until,
            finished_gpu_jobs=self.collector.finished_count(JobKind.GPU),
            finished_cpu_jobs=self.collector.finished_count(JobKind.CPU),
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
            stale_timer_fires=self.progress.stale_fires,
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

    def declare_timer(
        self, timer: Timer, handler: Callable[..., None], **binding: Any
    ) -> None:
        self.engine.declare(timer, handler, **binding)

    def arm_timer(self, timer: Timer, delay_s: float, *args: Any) -> EventHandle:
        return self.engine.arm(timer, self.engine.now + delay_s, *args)

    def is_running_or_finished(self, job_id: str) -> bool:
        record = self.collector.records.get(job_id)
        finished = record is not None and record.finish_time is not None
        return finished or job_id in self.progress.running

    def resize_gpu_job_cores(self, job_id: str, cpus_per_node: int) -> bool:
        record = self.progress.running.get(job_id)
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
        for node in record.nodes:
            node.bandwidth.update_demand(job_id, demand)
        # Cores are a speed input the grant ratio does not carry.
        self.progress.touch(record.node_ids, moved=job_id)
        return True

    def gpu_job_utilization(self, job_id: str) -> float:
        return self.progress.record(job_id, _RunningGpu).utilization

    def gpu_job_expected_utilization(self, job_id: str) -> float:
        record = self.progress.record(job_id, _RunningGpu)
        return record.quote(iteration_time, UNCONTENDED)[1]

    def throttle_cpu_job(self, job_id: str, node_id: int) -> bool:
        node = self.cluster.node(node_id)
        if not node.mba.supported:
            return False
        node.mba.throttle_down(job_id)
        self.collector.throttle_events += 1
        record = self.progress.running.get(job_id)
        if isinstance(record, _RunningCpu):
            self._audit(
                "throttled",
                record.job,
                node_id=node_id,
                level=node.mba.throttle_level(job_id),
            )
        self.progress.touch({node_id})
        return True

    def release_cpu_throttle(self, job_id: str, node_id: int) -> None:
        node = self.cluster.node(node_id)
        node.mba.release(job_id)
        self.progress.touch({node_id})

    def halve_cpu_job_cores(self, job_id: str) -> None:
        record = self.progress.record(job_id, _RunningCpu)
        new_cores = max(1, record.cores // 2)
        if new_cores == record.cores:
            return
        node = record.nodes[0]
        self.cluster.resize_cpus(job_id, {node.node_id: new_cores})
        scale = new_cores / record.cores
        record.cores = new_cores
        usage = node.bandwidth.usage_of(job_id)
        node.bandwidth.update_demand(job_id, usage.demand * scale)
        self.collector.core_halving_events += 1
        self.scheduler.cpu_job_resized(job_id, new_cores, self.engine.now)
        self._audit("halved", record.job, cores=new_cores)
        # Halving scales demand with cores, so an uncontended job keeps a
        # grant ratio of 1.0: name it, or the refresh would not see it.
        self.progress.touch({node.node_id}, moved=job_id)
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
        self.engine.arm(SCHEDULE_PASS, self.engine.now)

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
        record = self.progress.start(job, placements)
        if isinstance(record, _RunningCpu):
            self._cpu_incarnation[job.job_id] = (
                self._cpu_incarnation.get(job.job_id, 0) + 1
            )
        if self.audit is not None:
            detail: Dict[str, object] = {
                record.cores_key: record.cores,
                "nodes": list(record.node_ids),
            }
            if isinstance(record, _RunningGpu):
                detail["model"] = record.job.model_name
            self._audit("started", job, **detail)
        self.collector.job_started(job.job_id, self.engine.now, record.cores)
        # Registration put the job in each node's changed-set, so the
        # refresh prices it.
        self.progress.touch(record.node_ids)
        self.scheduler.job_started(job, placements, self.engine.now)

    # ------------------------------------------------------------------ #
    # Completions, preemptions and failures

    def _on_complete(self, record: _Running) -> None:
        """A job finished; :meth:`Progress.complete` has stopped it."""
        job_id = record.job.job_id
        now = self.engine.now
        self.collector.job_finished(job_id, now)
        if self.audit is not None:
            self._audit(
                "finished",
                record.job,
                **{record.cores_key: record.cores},
                queueing_s=self.collector.records[job_id].queueing_time,
            )
        self.scheduler.job_finished(record.job, now)
        self.progress.touch(record.node_ids)
        self.request_schedule()

    def _execute_preempt(self, decision: PreemptDecision) -> None:
        job_id = decision.job_id
        if job_id not in self.progress.running:
            raise RuntimeError(f"cannot preempt {job_id}: not running")
        now = self.engine.now
        record = self.progress.stop(job_id)
        # Aborted CPU jobs restart from scratch.
        preserve = decision.preserve_progress and isinstance(record, _RunningGpu)
        if preserve:
            self.progress.stashed[job_id] = record.work_done
        self._preemptions += 1
        self.collector.job_preempted(job_id, now)
        self._audit(
            "preempted",
            record.job,
            reason=decision.reason,
            progress_preserved=preserve,
        )
        self.scheduler.job_preempted(record.job, now, preserve_progress=preserve)
        self.progress.touch(record.node_ids)

    def _execute_failure(self, job_id: str, *, reason: str) -> None:
        """Kill one running job because its hardware failed."""
        if job_id not in self.progress.running:
            return  # already gone (e.g., completed at this same instant)
        now = self.engine.now
        record = self.progress.stop(job_id)
        if isinstance(record, _RunningGpu):
            checkpoint = record.job.checkpointed_iterations(record.work_done)
            self.collector.faults.lost_gpu_iterations += max(
                0.0, record.work_done - checkpoint
            )
            if checkpoint > 0:
                self.progress.stashed[job_id] = checkpoint
        else:
            self.collector.faults.lost_cpu_seconds += record.work_done
        self.collector.faults.restarts += 1
        self.collector.job_failed(job_id, now)
        self._audit("failed", record.job, reason=reason)
        self.scheduler.job_failed(record.job, now)
        self.progress.touch(record.node_ids)

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
        running = self.progress.running.items()
        return [job_id for job_id, r in running if isinstance(r, _RunningCpu)]

    def apply_cpu_straggler(
        self, job_id: str, *, factor: float, duration_s: float
    ) -> None:
        """Slow a running CPU job to ``factor`` of its speed for a while."""
        record = self.progress.running.get(job_id)
        if not isinstance(record, _RunningCpu):
            return
        record.straggle_factor = factor
        self.collector.faults.stragglers += 1
        self._audit("straggler", record.job, factor=factor)
        self.progress.touch(moved=job_id)
        self._straggle_count += 1
        self.engine.arm(
            STRAGGLER_END,
            self.engine.now + duration_s,
            job_id,
            self._cpu_incarnation[job_id],
            self._straggle_count,
        )

    def _end_straggler(self, job_id: str, incarnation: int, count: int) -> None:
        # Only heal the same incarnation: if the job finished or restarted
        # meanwhile, the stale timer must not touch the new record.  The
        # count only keeps the tag unique.
        record = self.progress.running.get(job_id)
        if self._cpu_incarnation.get(job_id) == incarnation and isinstance(
            record, _RunningCpu
        ):
            record.straggle_factor = 1.0
            self.progress.touch(moved=job_id)

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
        until = self.health.quarantine_until(node_id)
        self.engine.arm(QUARANTINE_END, until, node_id)
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
        self.engine.arm(SAMPLE, self.engine.now + self._sample_interval_s)

    # ------------------------------------------------------------------ #
    # Checkpoint / restore

    #: The :class:`Progress` table (inline), pass flags and the
    #: monitor's active set.
    STATE = Struct(
        (None, "progress", Inline(Progress)),
        ("pass_pending", "_pass_pending", BOOL),
        ("preemptions", "_preemptions", INT),
        ("sampling", "_sampling", BOOL),
        ("cpu_incarnation", "_cpu_incarnation", DictOf(JOB_ID, INT)),
        ("straggle_count", "_straggle_count", INT),
        ("monitor_active", "_monitor_active", ListOf(NODE_ID, set, sort=True)),
        ("monitor_last_tick", "_monitor_last_tick", Nullable(FLOAT)),
        ("observable_since", "_observable_since", Items((NODE_ID,), INF_OR_FLOAT)),
    )

    # What a restored runner requires live (see ``Engine.declare``).

    def _unsubmitted(self, refs: Refs) -> List[Tuple[str]]:
        records = self.collector.records
        return [(job_id,) for job_id in refs.jobs or () if job_id not in records]

    def _straggling(self, refs: Refs) -> List[Tuple[str, int]]:
        """A slowed CPU record has seen no heal of its incarnation since
        its last straggle, so that straggle's heal is still live."""
        return [
            (job_id, self._cpu_incarnation[job_id])
            for job_id, record in self.progress.running.items()
            if isinstance(record, _RunningCpu) and record.straggle_factor != 1.0
        ]

    def _quarantined(self, refs: Refs) -> List[Tuple[int]]:
        """Nodes whose quarantine ends after now (one ending now may have
        been readmitted already)."""
        until, now = self.health.quarantine_until, self.engine.now
        return [(n,) for n in range(len(self.cluster.nodes)) if until(n) > now]
