"""Progress-based execution: each running job's work, speed and completion.

Every running job, trainer or CPU job, is one record in one table.  It
carries (work_done, speed, last_update) toward its ``total_work``, and its
progress at ``now`` is ``work_done + speed * (now - last_update)``.  This
is what lets contention and adaptive allocation show up in end-to-end
latencies.  A job's speed is a pure function of its own cores, grant ratio
and (CPU jobs) straggle factor, and of its nodes' contention effect key
(bandwidth excess past the 75 % knee, LLC excess past 1.0, PCIe grant
ratio).  Each record kind prices itself (the pipeline model for trainers,
grant ratio and straggling for CPU jobs), re-checks that price for IV014
and serializes itself; everything else is shared.

Progress accrues, and the completion timer moves, only when a reprice
finds a new speed: an unchanged speed leaves ``work_done + speed * (now -
last_update)`` and the completion time exactly where they were.  So a
reprice that cannot move the speed can be skipped without changing a bit,
and :meth:`Progress.touch` reprices only jobs whose inputs moved (IV014
checks every priced speed against a fresh recomputation).  One path aims,
fires and validates completion timers for both kinds, and one stop path
takes a job off the cluster on completion, preemption or failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, ClassVar, Collection, Dict, List, Optional
from typing import Sequence, Tuple, Type, TypeVar

from repro.cluster.cluster import Cluster
from repro.cluster.interconnect import Interconnect
from repro.cluster.node import Node
from repro.perfmodel.bandwidth import memory_bandwidth_demand
from repro.perfmodel.catalog import ModelProfile, get_model
from repro.perfmodel.contention import ContentionState, effect_key, node_effect_key
from repro.perfmodel.pcie import pcie_peak_demand
from repro.perfmodel.stages import IterationBreakdown
from repro.schedulers.dirty import reference_mode
from repro.sim.engine import Engine, Timer
from repro.sim.events import EventHandle, EventPriority
from repro.sim.state import FLOAT, INT, JOB_ID, Built, DictOf, Refs, Stateful, Struct
from repro.workload.job import CpuJob, GpuJob, Job

#: LLC footprint a training job's CPU-side workers occupy (MB per node).
GPU_JOB_LLC_MB = 2.0

#: Fraction of an ordinary (non-HEAT) CPU job's work that stalls on memory
#: bandwidth; the rest is compute and ignores throttling.
ORDINARY_CPU_BW_BOUND = 0.15

#: What trainers are priced through: :func:`repro.perfmodel.speed.iteration_time`.
Pricer = Callable[..., IterationBreakdown]
_R = TypeVar("_R", bound="_Running")

#: A running job's completion, one family per record kind.
GPU_DONE, CPU_DONE = (
    Timer(f"{kind.lower()}-done", JOB_ID, priority=EventPriority.COMPLETION,
          missing=f"running {kind} job {{0}} without a completion event")
    for kind in ("GPU", "CPU")
)


@dataclass
class _Running(Stateful):
    """A running job's progress toward ``total_work`` (iterations for a
    trainer, seconds of full-speed work for a CPU job): at ``now`` it has
    done ``work_done + speed * (now - last_update)``."""

    #: The timer family of the job's completion event.
    done: ClassVar[Timer]
    #: Audit-log key its cores are reported under.
    cores_key: ClassVar[str]
    job: Job
    #: Cores on each of its nodes (a CPU job has one node).
    cores: int
    #: The job's node ids and Node objects, fixed for the record's
    #: lifetime (a restarted job gets a fresh record); pinned when the
    #: record is built to keep per-reprice cluster lookups off the hot path.
    node_ids: Tuple[int, ...]
    nodes: List[Node]
    total_work: float
    last_update: float
    work_done: float = field(init=False, default=0.0)
    speed: float = field(init=False, default=0.0)
    #: Authoritative completion time.  The armed heap event may lag behind
    #: (fire earlier) when repricing moved the completion later: the stale
    #: fire detects ``completion_time > now`` and re-arms (validate-on-pop,
    #: the ShareHeap idiom).  Invariant: armed time <= completion_time.
    completion_time: float = field(init=False, default=0.0)
    #: The armed completion event; None until the first pricing arms it
    #: (after a checkpoint restore, until the engine hands it back).
    completion: Optional[EventHandle] = field(init=False, default=None)

    def register(self) -> None:
        """Register the job's memory traffic on its nodes."""
        raise NotImplementedError

    def price(self, progress: "Progress") -> float:
        """The speed current cluster state gives the job."""
        raise NotImplementedError

    def recheck(self, progress: "Progress") -> Tuple[object, object]:
        """(priced, fresh): what the record holds and what current cluster
        state gives, recomputed without memos or writes (IV014)."""
        raise NotImplementedError

    #: Checkpoint row; the job and its nodes are rebuilt from the
    #: cluster, and the completion handle handed back, on restore.
    STATE = Struct(
        ("cores", INT),
        ("work_done", FLOAT),
        ("speed", FLOAT),
        ("last_update", FLOAT),
        ("completion_time", FLOAT),
        row=True,
    )


@dataclass
class _RunningGpu(_Running):
    done = GPU_DONE
    cores_key = "cores_per_node"
    job: GpuJob
    profile: ModelProfile
    #: The fabric the job synchronizes over, pinned with its nodes.
    interconnect: Interconnect
    utilization: float = field(init=False, default=0.0)

    def contention(self) -> ContentionState:
        """Worst-case contention across the job's nodes: iterations are
        paced by the slowest participant."""
        job_id = self.job.job_id
        grant, pressure, llc, pcie = 1.0, 0.0, 0.0, 1.0
        for node in self.nodes:
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

    def register(self) -> None:
        demand = memory_bandwidth_demand(self.profile, self.job.setup, self.cores)
        pcie = pcie_peak_demand(self.profile, self.job.setup)
        for node in self.nodes:
            node.register_memory_traffic(
                self.job.job_id,
                demand,
                is_cpu_job=False,
                llc_mb=GPU_JOB_LLC_MB,
                pcie_gbps=pcie,
            )

    def price(self, progress: "Progress") -> float:
        """Price through the run's ``iteration_time`` memo, and publish a
        moved utilization to the job's GPUs.

        ``_speed_memo`` returns the (speed, utilization) of an earlier
        ``iteration_time`` call with the same model, setup, cores,
        contention effect key and interconnect — bit-identical, because
        the model is pure.
        """
        contention = self.contention()
        key: Optional[Tuple[Any, ...]] = None
        priced: Optional[Tuple[float, float]] = None
        if not progress.reference:
            key = (
                self.job.model_name,
                self.job.setup,
                self.cores,
                effect_key(contention),
                self.interconnect,
            )
            priced = progress._speed_memo.get(key)
        if priced is None:
            priced = self.quote(progress.iteration_time, contention)
            if key is not None:
                progress._speed_memo[key] = priced
        speed, utilization = priced
        if utilization != self.utilization:
            self.utilization = utilization
            for node in self.nodes:
                node.set_gpu_utilization(self.job.job_id, utilization)
        return speed

    def quote(self, model: Pricer, contention: ContentionState) -> Tuple[float, float]:
        """(speed, utilization) ``model`` prices under ``contention``, with
        no memo and no writes."""
        breakdown = model(
            self.profile,
            self.job.setup,
            self.cores,
            contention,
            interconnect=self.interconnect,
        )
        return 1.0 / breakdown.total_s, breakdown.utilization

    def recheck(self, progress: "Progress") -> Tuple[object, object]:
        fresh = self.quote(progress.iteration_time, self.contention())
        return (self.speed, self.utilization), fresh

    STATE = _Running.STATE.plus(("utilization", FLOAT))


@dataclass
class _RunningCpu(_Running):
    done = CPU_DONE
    cores_key = "cores"
    job: CpuJob
    #: Fault-injected slowdown (1.0 = healthy); multiplies the speed.
    straggle_factor: float = field(init=False, default=1.0)

    def register(self) -> None:
        self.nodes[0].register_memory_traffic(
            self.job.job_id,
            self.job.bw_demand_gbps,
            is_cpu_job=True,
            is_inference=self.job.is_inference,
            llc_mb=self.job.llc_mb,
        )

    def price(self, progress: "Progress") -> float:
        """The speed at the home node's bandwidth grant ratio.

        HEAT-like jobs are pure bandwidth streamers and slow in direct
        proportion to their grant; ordinary CPU jobs are mostly
        compute-bound and only a small fraction of their work stalls.
        """
        grant = self.nodes[0].bandwidth.grant_ratio(self.job.job_id)
        if self.job.is_heat:
            bw_factor = grant
        else:
            bw_factor = (1.0 - ORDINARY_CPU_BW_BOUND) + ORDINARY_CPU_BW_BOUND * grant
        core_factor = self.cores / self.job.cores
        return max(1e-9, core_factor * bw_factor * self.straggle_factor)

    def recheck(self, progress: "Progress") -> Tuple[object, object]:
        return self.speed, self.price(progress)

    STATE = _Running.STATE.plus(("straggle_factor", FLOAT))


class Progress(Stateful):
    """The running-job table, its pricing memos and its completion timers."""

    def __init__(
        self,
        engine: Engine,
        cluster: Cluster,
        iteration_time: Pricer,
        on_done: Callable[[_Running], None],
    ) -> None:
        self._engine = engine
        self._cluster = cluster
        #: The trainer model, as the runner binds it (a profiler wraps that).
        self.iteration_time = iteration_time
        #: Called with a finished job's record, already off the table;
        #: None once :meth:`detach` ended the run.
        self._on_done: Optional[Callable[[_Running], None]] = on_done
        self.running: Dict[str, _Running] = {}
        #: Iterations a preempted or failed trainer resumes from at its next start.
        self.stashed: Dict[str, float] = {}
        #: Lazy completion timers that fired early and were re-armed.
        self.stale_fires = 0
        #: Reference mode (``REPRO_REFERENCE=1``): re-price every resident
        #: of a touched node from scratch and cancel+reschedule a
        #: completion whenever its speed moves — the pre-lazy behaviour.
        #: Read once at construction (parity tests set the env var per
        #: runner, never mid-run).
        self.reference = reference_mode()
        #: Run-scoped ``iteration_time`` memo: (model name, setup, cores
        #: per node, contention effect key, interconnect) -> (speed,
        #: utilization).  Every key part is a frozen value and the model
        #: is pure, so entries never go stale.  Freed with the table;
        #: unused in reference mode.
        self._speed_memo: Dict[Tuple[Any, ...], Tuple[float, float]] = {}
        #: Each node's (bandwidth excess, LLC excess, PCIe grant ratio) at
        #: its last refresh; see :meth:`touch`.
        self._node_key_memo: Dict[int, Tuple[float, ...]] = {}
        for kind in (_RunningGpu, _RunningCpu):
            engine.declare(
                kind.done,
                self.complete,
                requires=partial(self._running_ids, kind),
                keep=partial(self._keep_completion, kind),
            )

    def record(self, job_id: str, kind: Type[_R]) -> _R:
        """The running job's record, which must be of ``kind``."""
        record = self.running.get(job_id)
        if not isinstance(record, kind):
            raise KeyError(f"job {job_id} has no running {kind.__name__} record")
        return record

    def detach(self) -> None:
        """Drop the completion callback as the run ends: it is bound to
        the runner, which holds this table."""
        self._on_done = None

    def _build(self, job: Job) -> _Running:
        """A record for ``job`` on its current allocation, its nodes pinned."""
        allocation = self._cluster.allocation_of(job.job_id)
        ids = allocation.node_ids
        nodes = [self._cluster.node(node_id) for node_id in ids]
        cores = allocation.shares[0].cpus
        now = self._engine.now
        if isinstance(job, GpuJob):
            profile = get_model(job.model_name)
            interconnect = self._cluster.fabric.for_nodes(ids)
            return _RunningGpu(
                job, cores, ids, nodes, job.total_iterations, now, profile, interconnect
            )
        if isinstance(job, CpuJob):
            return _RunningCpu(job, cores, ids, nodes, job.duration_s, now)
        raise TypeError(f"unknown job type: {type(job).__name__}")

    # ------------------------------------------------------------------ #
    # Start, stop, reprice

    def start(
        self, job: Job, placements: Sequence[Tuple[int, int, int]]
    ) -> _Running:
        """Put ``job`` on the cluster and the table, with any stashed
        iterations; the next :meth:`touch` of its nodes prices it."""
        self._cluster.allocate(job.job_id, [(n, c, g) for n, c, g in placements])
        record = self.running[job.job_id] = self._build(job)
        record.work_done = self.stashed.pop(job.job_id, 0.0)
        record.register()
        return record

    def stop(self, job_id: str) -> _Running:
        """Take a running job off the cluster: accrue its progress to now,
        drop its completion timer and free its allocation."""
        record = self.running.pop(job_id)
        self._accrue(record, self._engine.now)
        if record.completion is not None:
            record.completion.cancel()
        self._cluster.release(job_id)
        return record

    def _accrue(self, record: _Running, now: float) -> None:
        span = now - record.last_update
        if span > 0:
            record.work_done += record.speed * span
        record.last_update = now

    def touch(
        self, node_ids: Collection[int] = (), moved: Optional[str] = None
    ) -> None:
        """Re-price the jobs on the given nodes whose speed inputs moved;
        accrue and re-aim a job's completion only if its speed moved.

        Per node, the candidates are the jobs in its monitor's changed-set
        (grant ratio moved, or newly registered), plus every GPU resident
        when the node's contention key moved since its last refresh.  CPU
        speed reads no node-level contention, so a moved key leaves CPU
        residents alone.  Cores and straggle factors are not inputs the
        node sees: a resize or a straggler names its job as ``moved``.
        Reference mode reprices every resident.

        Candidates are keyed by job id (a multi-node gang appears under
        several of its nodes) and repriced GPU first, each kind in
        sorted-job-id order.
        """
        gpu: Dict[str, _Running] = {}
        cpu: Dict[str, _Running] = {}
        running = self.running
        reference = self.reference
        key_memo = self._node_key_memo
        nodes = self._cluster.nodes
        # Almost every call names at most one node and one job of each
        # kind; sorting those would only copy them into a list.
        for node_id in node_ids if len(node_ids) < 2 else sorted(node_ids):
            node = nodes[node_id]
            changed = node.bandwidth.drain_changed()
            every_gpu = reference
            if not reference:
                # The node's part of every resident trainer's effect key.
                key = node_effect_key(
                    node.bandwidth.pressure, node.llc_pressure, node.pcie.grant_ratio()
                )
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
        if moved is not None and moved in running:
            record = running[moved]
            (gpu if isinstance(record, _RunningGpu) else cpu)[moved] = record
        for kind in (gpu, cpu):
            for job_id in kind if len(kind) < 2 else sorted(kind):
                record = kind[job_id]
                speed = record.price(self)
                if speed != record.speed:
                    self._aim_completion(record, speed)

    # ------------------------------------------------------------------ #
    # Completion timers

    def _aim_completion(self, record: _Running, speed: float) -> None:
        """Accrue progress at the old speed, adopt ``speed``, and move the
        completion to where it puts it."""
        now = self._engine.now
        self._accrue(record, now)
        record.speed = speed
        remaining = record.total_work - record.work_done
        target = now + max(0.0, remaining / record.speed)
        record.completion_time = target
        completion = record.completion
        if completion is not None:
            if not self.reference and target >= completion.time:
                # Completion moved later (or held): leave the armed timer
                # alone.  It fires stale and re-arms in complete() —
                # cheaper than a cancel+push on every speed change.
                return
            completion.cancel()
        record.completion = self._engine.arm(record.done, target, record.job.job_id)

    def complete(self, job_id: str) -> None:
        """A completion timer fired.

        Validate-on-pop: repricing that moves a completion *later* leaves
        the armed event in place (see :meth:`_aim_completion`), so the
        record's authoritative ``completion_time`` may still be ahead.
        Such a fire is stale: re-arm at the authoritative time, count it,
        and book its cost under the ``completion-stale`` profiler
        category so completion accounting stays honest.  In reference
        mode the armed time always equals ``completion_time`` and no fire
        is stale.  A final fire stops the job and hands its record to
        the runner.
        """
        record = self.running[job_id]
        if record.completion_time > self._engine.now:
            record.completion = self._engine.arm(
                record.done, record.completion_time, job_id
            )
            self.stale_fires += 1
            self._engine.recategorize_current_event("completion-stale")
            return
        on_done = self._on_done
        assert on_done is not None  # detached tables have no live timers
        on_done(self.stop(job_id))

    # ------------------------------------------------------------------ #
    # Checkpoint / restore
    #
    # The first reprice after a restore recomputes each speed from
    # restored cluster state; it equals the snapshotted speed (IV014), so
    # it accrues nothing and moves no timer.

    def _rebuild(self, job_id: str, refs: Refs) -> _Running:
        """A restored record's shell, pinned to its restored allocation."""
        assert refs.jobs is not None
        if not self._cluster.has_allocation(job_id):
            raise LookupError(f"job {job_id!r} holds no allocation")
        return self._build(refs.jobs[job_id])

    #: The table (one ``running`` family), the stash and the stale-fire
    #: count.
    STATE = Struct(
        ("running", DictOf(JOB_ID, Built(_rebuild))),
        ("stashed_progress", "stashed", DictOf(JOB_ID, FLOAT)),
        ("stale_timer_fires", "stale_fires", INT),
    )

    def _after_load(self, refs: Refs) -> None:
        # A missing node key counts as moved: each node's first refresh
        # reprices its GPU residents, which finds their snapshotted speeds.
        self._node_key_memo = {}

    def _running_ids(self, kind: Type[_Running], refs: Refs) -> List[Tuple[str]]:
        """Every running job of ``kind`` needs its completion event."""
        return [(job_id,) for job_id, r in self.running.items() if type(r) is kind]

    def _keep_completion(
        self, kind: Type[_Running], handle: EventHandle, job_id: str
    ) -> None:
        self.record(job_id, kind).completion = handle
