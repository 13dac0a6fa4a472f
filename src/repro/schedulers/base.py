"""Scheduler interface.

Schedulers are queue managers: the simulation runner feeds them arrivals
and completions and asks for *decisions*; the runner executes the
decisions against the cluster and the job-progress engine.  Keeping
schedulers pure over an explicit free-state snapshot makes every policy
unit-testable without a simulation.

CODA additionally needs runtime control (retuning a running job's cores,
throttling a CPU job, aborting a borrower); those go through the
:class:`SchedulerContext` the runner passes at attach time, so the baselines
never see capabilities they must not use.
"""

from __future__ import annotations

import abc
import heapq
from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import (
    Any,
    Callable,
    Collection,
    Deque,
    Dict,
    Generic,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
    Union,
)

from repro.cluster.cluster import Cluster
from repro.cluster.resources import ResourceVector
from repro.health.restarts import DeadJob, RestartPolicy
from repro.schedulers.dirty import PassGate
from repro.sim.engine import Timer
from repro.sim.events import EventHandle
from repro.sim.state import FLOAT, INT, INT_KEY, JOB, JOB_ID, STR, DictOf, ListOf
from repro.sim.state import Record, Refs, Row, Stateful, Struct
from repro.workload.job import GpuJob, Job


@dataclass(frozen=True)
class StartDecision:
    """Start ``job`` with ``placements`` = [(node_id, cpus, gpus), ...].

    For GPU jobs the cpus entry is the per-node core allocation the policy
    chose (the owner's request under FIFO/DRF, the allocator's N_start
    under CODA).
    """

    job: Job
    placements: Tuple[Tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        if not self.placements:
            raise ValueError(f"{self.job.job_id}: empty placement")


@dataclass(frozen=True)
class PreemptDecision:
    """Evict a running job and re-queue it.

    ``preserve_progress`` distinguishes the multi-array scheduler's two
    eviction flavours: aborted CPU borrowers restart from scratch ("the
    suspended CPU job re-enters the array head", Sec. V-C), while migrated
    GPU jobs keep their training progress (container migration).
    """

    job_id: str
    reason: str
    preserve_progress: bool = False


Decision = Union[StartDecision, PreemptDecision]


class SchedulerContext(abc.ABC):
    """Runtime-control surface the runner exposes to CODA.

    All mutations go through here so the runner can keep job progress,
    contention state, and metrics consistent.
    """

    @property
    @abc.abstractmethod
    def now(self) -> float:
        """Current simulation time."""

    #: The cluster under management; concrete contexts expose it as an
    #: attribute (the eliminator reads node monitors through it).
    cluster: Cluster

    @abc.abstractmethod
    def declare_timer(
        self, timer: Timer, handler: Callable[..., None], **binding: Any
    ) -> None:
        """Declare a policy timer family (see ``Engine.declare``)."""

    @abc.abstractmethod
    def arm_timer(self, timer: Timer, delay_s: float, *args: Any) -> EventHandle:
        """Arm a declared family's event ``delay_s`` from now."""

    @abc.abstractmethod
    def is_running_or_finished(self, job_id: str) -> bool:
        """True while ``job_id`` runs and once it finished."""

    @abc.abstractmethod
    def resize_gpu_job_cores(self, job_id: str, cpus_per_node: int) -> bool:
        """Retune a running training job's per-node cores.  Returns False
        (without changes) when some node lacks the headroom."""

    @abc.abstractmethod
    def gpu_job_utilization(self, job_id: str) -> float:
        """The job's current GPU utilization (the profiling signal)."""

    @abc.abstractmethod
    def gpu_job_expected_utilization(self, job_id: str) -> float:
        """The utilization the job would reach at its current allocation on
        a quiet node — the reference the eliminator compares against (a
        production system estimates it from the job's profiling history)."""

    @abc.abstractmethod
    def throttle_cpu_job(self, job_id: str, node_id: int) -> bool:
        """Step the CPU job's MBA throttle down one level.  Returns False
        when the node has no MBA support."""

    @abc.abstractmethod
    def release_cpu_throttle(self, job_id: str, node_id: int) -> None:
        """Lift any MBA throttle on ``job_id`` (contention has passed)."""

    @abc.abstractmethod
    def halve_cpu_job_cores(self, job_id: str) -> None:
        """The no-MBA fallback of Sec. V-D."""

    @abc.abstractmethod
    def preempt_job(self, job_id: str, *, preserve_progress: bool, reason: str) -> None:
        """Evict a running job now and hand it back to the scheduler."""

    @abc.abstractmethod
    def request_schedule(self) -> None:
        """Ask for a scheduling pass at the current instant (coalesced)."""

    # -- Activity-indexed monitoring (defaults: scan everything) -------- #
    #
    # The eliminator's tick asks the context which nodes are worth
    # examining.  The defaults preserve the historical full-cluster scan,
    # so context implementations that do not maintain an active set (test
    # fakes, minimal drivers) keep working unchanged; SimulationRunner
    # overrides all four with an incrementally maintained set (nodes with
    # live throttles, an open telemetry outage, or CPU jobs at or above
    # the eliminator's bandwidth threshold).

    def monitor_active_node_ids(self) -> Sequence[int]:
        """Node ids the periodic monitor should examine this tick, in
        ascending order (tick-internal ordering is decision-relevant for
        multi-node jobs)."""
        return range(len(self.cluster.nodes))

    def monitor_deactivate_node(self, node_id: int) -> None:
        """The monitor observed ``node_id`` (telemetry up) and found
        nothing to police — the context may drop it from the active set."""

    def monitor_watch_pressure(self, threshold: float) -> None:
        """The monitor acts on a CPU-hosting node only at a bandwidth
        pressure of at least ``threshold``: a context that drops nodes
        from its active set must bring a node back whenever its pressure
        reaches ``threshold`` while it hosts CPU jobs."""

    def monitor_note_tick(self, now: float) -> None:
        """A monitor tick finished at ``now`` (freshness bookkeeping)."""


_DEAD_JOB = Record(DeadJob, job_id=JOB_ID, time=FLOAT, failures=INT, reason=STR)

#: A failed job's delayed return to its queue (restart backoff).
REQUEUE = Timer("requeue", JOB)


class Scheduler(Stateful, abc.ABC):
    """Base class for all scheduling policies.

    Besides queue management, the base class owns the failure-resilience
    bookkeeping every policy shares: a per-job restart budget with
    exponential-backoff re-queueing, and the dead-job ledger that absorbs
    poison jobs once their budget runs out (see docs/resilience.md).
    """

    #: Human-readable policy name used in reports.
    name: str = "base"

    #: The policy's DRF-ordered queue families (none for FIFO); the
    #: auditor holds each one's share heap to its linear scan (IV013).
    families: Tuple["TenantQueues[Any]", ...] = ()

    def __init__(
        self, *, restart_policy: Optional[RestartPolicy] = None
    ) -> None:
        self.restart_policy = restart_policy or RestartPolicy()
        #: Jobs retired after exhausting their restart budget.
        self.dead_jobs: List[DeadJob] = []
        self._restart_counts: Dict[str, int] = {}
        self._context: Optional[SchedulerContext] = None

    def attach(self, context: SchedulerContext) -> None:
        """Receive the runtime-control surface.  Baselines only use it for
        deferred (backed-off) failure re-queues."""
        self._context = context
        context.declare_timer(
            REQUEUE, self._requeue_after_backoff, requires=self._backing_off
        )

    def detach(self) -> None:
        """Drop the runtime-control surface as the run ends: it is the
        runner, which holds this policy."""
        self._context = None

    @abc.abstractmethod
    def submit(self, job: Job, now: float) -> None:
        """A new job arrived."""

    @abc.abstractmethod
    def job_finished(self, job: Job, now: float) -> None:
        """A running job completed (resources already released)."""

    def job_started(
        self, job: Job, placements: Sequence[Tuple[int, int, int]], now: float
    ) -> None:
        """One of this policy's start decisions was executed.  CODA hooks
        profiling here; the baselines need nothing."""

    def cpu_job_resized(self, job_id: str, cores: int, now: float) -> None:
        """A running CPU job's core allocation changed out from under the
        policy (the eliminator's no-MBA halving).  Policies that track
        per-node core usage fold the delta in here; the default needs
        nothing."""

    def job_preempted(self, job: Job, now: float, *, preserve_progress: bool) -> None:
        """A running job was evicted; default: treat like a fresh submit."""
        self.submit(job, now)

    def job_failed(self, job: Job, now: float) -> None:
        """A running job was killed by an infrastructure failure (node
        crash, GPU failure).

        The base class charges the job's restart budget: the first failure
        re-queues immediately (the pre-budget behaviour), repeat failures
        re-queue after an exponentially growing delay, and a job that
        exhausts its budget lands in :attr:`dead_jobs` instead of
        livelocking its array head, and gives back its fair share
        (:meth:`_release_share`).  Where the job re-enters its queue is
        :meth:`_requeue_failed_job`'s business; any surviving checkpoint
        progress is the runner's, not the queue's."""
        count = self._restart_counts.get(job.job_id, 0) + 1
        self._restart_counts[job.job_id] = count
        policy = self.restart_policy
        if policy.exhausted(count):
            self.dead_jobs.append(
                DeadJob(
                    job_id=job.job_id,
                    time=now,
                    failures=count,
                    reason="restart budget exhausted",
                )
            )
            self._release_share(job)
            return
        delay = policy.requeue_delay(count)
        context = self._context
        if delay <= 0 or context is None:
            self._requeue_failed_job(job, now)
            return
        context.arm_timer(REQUEUE, delay, job)

    def _release_share(self, job: Job) -> None:
        """Stop charging ``job``'s tenant for it: the job finished or
        died.  The default policy keeps no fair-share state."""

    def _requeue_after_backoff(self, job: Job) -> None:
        context = self._context
        assert context is not None  # a detached policy fires no timers
        self._requeue_failed_job(job, context.now)
        context.request_schedule()

    def _backing_off(self, refs: Optional[Refs] = None) -> List[Tuple[str]]:
        """Jobs waiting out a re-queue backoff: failed, yet neither dead,
        queued, nor back with the runner."""
        context = self._context
        assert context is not None
        out = {job.job_id for job in self.pending_jobs()}
        out.update(dead.job_id for dead in self.dead_jobs)
        return [
            (job_id,)
            for job_id in self._restart_counts
            if job_id not in out and not context.is_running_or_finished(job_id)
        ]

    def _requeue_failed_job(self, job: Job, now: float) -> None:
        """Put a failed (but not dead) job back in its queue.  Default:
        the same abort/re-queue path as a progress-losing preemption —
        queue-head policies (the multi-array scheduler) thereby put
        displaced jobs back at their array head."""
        self.job_preempted(job, now, preserve_progress=False)

    @abc.abstractmethod
    def schedule(self, cluster: Cluster, now: float) -> List[Decision]:
        """Produce this pass's decisions given current cluster state."""

    def can_skip_pass(self, cluster: Cluster) -> bool:
        """True when :meth:`schedule` is guaranteed to return zero
        decisions and mutate nothing, so the runner may skip calling it.

        The default is the always-safe False; incremental policies
        override this with their :class:`repro.schedulers.dirty.PassGate`
        verdict.  Must stay False under ``REPRO_REFERENCE=1`` (the
        gates handle that themselves)."""
        return False

    @abc.abstractmethod
    def pending_jobs(self) -> List[Job]:
        """Jobs currently queued (for metrics and debugging)."""

    def queue_depths(self) -> Tuple[int, int]:
        """``(queued GPU jobs, queued CPU jobs)``.  The default walks
        :meth:`pending_jobs`; the shipped policies answer from O(1)
        counts (IV012 checks them against the walk)."""
        return depths_of(self.pending_jobs())

    # ------------------------------------------------------------------ #
    # Checkpoint / restore
    #
    # The base class owns the shared resilience bookkeeping; each policy
    # appends its queues as a ``queues`` group.  Queues hold live Job
    # objects, so they serialize as job ids and are resolved against the
    # deterministically regenerated trace on restore.

    STATE = Struct(
        ("dead_jobs", ListOf(_DEAD_JOB)),
        ("restart_counts", "_restart_counts", DictOf(JOB_ID, INT)),
    )


def depths_of(jobs: Sequence[Job]) -> Tuple[int, int]:
    """``(GPU jobs, CPU jobs)`` among ``jobs``, by walking them."""
    gpu = sum(1 for job in jobs if isinstance(job, GpuJob))
    return gpu, len(jobs) - gpu


@dataclass
class TenantUsage:
    """Per-tenant running-resource accounting shared by DRF-style policies."""

    cpus: int = 0
    gpus: int = 0

    def add(self, cpus: int, gpus: int) -> None:
        self.cpus += cpus
        self.gpus += gpus

    def remove(self, cpus: int, gpus: int) -> None:
        self.cpus -= cpus
        self.gpus -= gpus
        if self.cpus < 0 or self.gpus < 0:
            raise RuntimeError(
                f"tenant usage went negative: cpus={self.cpus}, gpus={self.gpus}"
            )


class UsageLedger(Stateful):
    """Tracks per-tenant running usage for dominant-share computations."""

    def __init__(self) -> None:
        self._usage: Dict[int, TenantUsage] = {}
        self._job_footprint: Dict[str, Tuple[int, int, int]] = {}

    def start(self, job_id: str, tenant_id: int, cpus: int, gpus: int) -> None:
        if job_id in self._job_footprint:
            raise RuntimeError(f"job {job_id} already accounted")
        self._usage.setdefault(tenant_id, TenantUsage()).add(cpus, gpus)
        self._job_footprint[job_id] = (tenant_id, cpus, gpus)

    def finish(self, job_id: str) -> Optional[Tuple[int, int, int]]:
        """Drop the job's footprint; returns ``(tenant_id, cpus, gpus)``
        (or None if untracked) so callers maintaining share heaps know
        whose dominant share just changed."""
        footprint = self._job_footprint.pop(job_id, None)
        if footprint is None:
            return None
        tenant_id, cpus, gpus = footprint
        usage = self._usage[tenant_id]
        usage.remove(cpus, gpus)
        if not (usage.cpus or usage.gpus):
            # usage_of reads a missing tenant as zero; dropping the entry
            # keeps the ledger the one a restore rebuilds.
            del self._usage[tenant_id]
        return footprint

    def usage_of(self, tenant_id: int) -> TenantUsage:
        return self._usage.get(tenant_id, TenantUsage())

    #: Footprints only: per-tenant usage is derived from them.
    STATE = Struct((None, "_job_footprint", DictOf(JOB_ID, Row(INT, INT, INT))))

    def _after_load(self, refs: Refs) -> None:
        self._usage = {}
        for tenant_id, cpus, gpus in self._job_footprint.values():
            self._usage.setdefault(tenant_id, TenantUsage()).add(cpus, gpus)

    def dominant_share(
        self, tenant_id: int, total_cpus: int, total_gpus: int
    ) -> float:
        usage = self.usage_of(tenant_id)
        shares = []
        if total_cpus > 0:
            shares.append(usage.cpus / total_cpus)
        if total_gpus > 0:
            shares.append(usage.gpus / total_gpus)
        return max(shares) if shares else 0.0


class ShareHeap:
    """Lazy min-heap over ``(dominant_share, tenant_id)`` for DRF-style
    tenant selection, replacing the per-iteration linear scan.

    Invariant: every tenant with a nonempty queue has at least one heap
    entry carrying its *current* share.  It is maintained by pushing on
    each event that could break it — a queue going nonempty (submit to an
    empty queue, any re-queue at the head) and a share change while the
    queue is nonempty (ledger ``start``/``finish``).  Stale entries are
    never removed eagerly; :meth:`pop_min` drops them on contact by
    re-checking the stored share against the ledger (the share is
    recomputed by the *identical* float expression, so equality is
    exact).  Selection is therefore byte-identical to a linear min over
    ``(share, tenant_id)`` of the nonempty, unblocked queues — both pick
    the same unique minimum of a total order.

    Entries popped for *blocked* tenants are stashed and must be
    re-pushed via :meth:`flush_stash` before the pass ends: a blocked
    tenant's share cannot change within a pass (it starts nothing), so
    the stashed entry is still current.

    Totals are unknown until the first :meth:`configure`; until then
    pushes are no-ops and the heap stays in ``needs_rebuild`` state — the
    next pass rebuilds from the queues, which covers every earlier event.
    """

    __slots__ = (
        "_ledger",
        "_total_cpus",
        "_total_gpus",
        "_entries",
        "_stash",
        "needs_rebuild",
    )

    def __init__(self, ledger: UsageLedger) -> None:
        self._ledger = ledger
        self._total_cpus: Optional[int] = None
        self._total_gpus: Optional[int] = None
        self._entries: List[Tuple[float, int]] = []
        self._stash: List[Tuple[float, int]] = []
        self.needs_rebuild = True

    def configure(self, total_cpus: int, total_gpus: int) -> None:
        """Set (or confirm) the cluster totals shares are computed over."""
        if (total_cpus, total_gpus) != (self._total_cpus, self._total_gpus):
            self._total_cpus = total_cpus
            self._total_gpus = total_gpus
            self.needs_rebuild = True

    def invalidate(self) -> None:
        """Discard everything; the next pass rebuilds from the queues."""
        self.needs_rebuild = True

    def push(self, tenant_id: int) -> None:
        """Record that ``tenant_id``'s queue or share just changed."""
        if self.needs_rebuild or self._total_cpus is None:
            return
        heapq.heappush(
            self._entries,
            (
                self._ledger.dominant_share(
                    tenant_id, self._total_cpus, self._total_gpus
                ),
                tenant_id,
            ),
        )

    def rebuild(self, queues: Dict[int, Any]) -> None:
        """Re-seed one entry per tenant with a nonempty queue."""
        assert self._total_cpus is not None and self._total_gpus is not None
        self._entries = [
            (
                self._ledger.dominant_share(
                    tenant_id, self._total_cpus, self._total_gpus
                ),
                tenant_id,
            )
            for tenant_id, queue in queues.items()
            if queue
        ]
        heapq.heapify(self._entries)
        self._stash.clear()
        self.needs_rebuild = False

    def pop_min(
        self, queues: Dict[int, Any], blocked: Any
    ) -> Optional[Tuple[float, int]]:
        """Next ``(share, tenant_id)`` among nonempty unblocked queues,
        or None when every remaining tenant is blocked or empty."""
        while self._entries:
            entry = heapq.heappop(self._entries)
            share, tenant_id = entry
            queue = queues.get(tenant_id)
            if not queue:
                continue
            assert self._total_cpus is not None and self._total_gpus is not None
            if share != self._ledger.dominant_share(
                tenant_id, self._total_cpus, self._total_gpus
            ):
                continue
            if tenant_id in blocked:
                self._stash.append(entry)
                continue
            return entry
        return None

    def stash(self, entry: Tuple[float, int]) -> None:
        """Hold a popped entry for a tenant that just became blocked."""
        self._stash.append(entry)

    def flush_stash(self) -> None:
        """Re-push every stashed (still-current) entry; call at pass end."""
        for entry in self._stash:
            heapq.heappush(self._entries, entry)
        self._stash.clear()


JobT = TypeVar("JobT", bound=Job)


class TenantQueues(Stateful, Generic[JobT]):
    """One family of per-tenant FIFO queues, served in DRF order.

    A family is one :class:`PassGate` group: DRF's one queue set, or one
    of the multi-array scheduler's four (``gpu_big``, ``gpu_small``,
    ``inference``, ``cpu``).  It owns how the family's jobs wait: the
    per-tenant deques, the O(1) ``[gpu, cpu]`` depth counts, the
    examination window and the gate marks it implies, the DRF-order
    tenant pick with its per-pass stash, and snapshot/restore.  The
    policy places the jobs it is handed, charges its ledger, and
    decides whether a group is scanned at all.

    **Depths.**  ``depths`` is the policy's ``[gpu, cpu]`` count of
    queued jobs, one list shared by all its families, so reading it
    costs no call.  Only the families move it: ``submit``, ``requeue``
    and ``take`` by one job, ``restore`` by the jobs it drops and
    loads.  IV012 checks it against a walk of the queues.

    **Window.**  A pass examines the first ``window`` jobs of each
    tenant queue: 1 for head-only families, ``BACKFILL_DEPTH`` for the
    GPU sub-arrays' bounded backfill.  A submit marks the group only
    when the job lands inside the window; a head re-queue always does.

    **Pick.**  :meth:`drf_order` yields tenants by ascending
    ``(dominant_share, tenant_id)`` over the nonempty queues not blocked
    this pass: from the family's :class:`ShareHeap` while the gate is
    enabled, by :meth:`linear_min` under ``REPRO_REFERENCE=1``.  The
    heap needs a push whenever a queued tenant's share moves, so the
    policy reports every ledger ``start``/``finish`` through
    :meth:`share_changed` on each family sharing that ledger.
    """

    __slots__ = (
        "group",
        "window",
        "_gate",
        "_incremental",
        "_ledger",
        "_queues",
        "_depths",
        "_heap",
        "_totals",
        "_blocked",
    )

    def __init__(
        self,
        group: str,
        ledger: UsageLedger,
        gate: PassGate,
        depths: List[int],
        *,
        window: int = 1,
    ) -> None:
        self.group = group
        self.window = window
        self._gate = gate
        #: The gate's verdict, fixed at construction like the gate's own.
        self._incremental = gate.enabled
        self._ledger = ledger
        self._queues: Dict[int, Deque[JobT]] = {}
        self._depths = depths
        self._heap = ShareHeap(ledger)
        #: Cluster ``(cpus, gpus)`` the last pass computed shares over.
        self._totals = (0, 0)
        #: Tenants whose window held nothing placeable this pass.
        self._blocked: Set[int] = set()

    # -- queue mutations ------------------------------------------------ #

    def submit(self, job: JobT) -> None:
        """Append ``job`` at its tenant's tail."""
        queue = self._queues.setdefault(job.tenant_id, deque())
        if len(queue) < self.window:
            self._gate.mark(self.group)
        if not queue:
            self._heap.push(job.tenant_id)
        queue.append(job)
        self._depths[_kind(job)] += 1

    def requeue(self, job: JobT) -> None:
        """Put ``job`` back at its tenant's head."""
        self._gate.mark(self.group)
        self._heap.push(job.tenant_id)
        self._queues.setdefault(job.tenant_id, deque()).appendleft(job)
        self._depths[_kind(job)] += 1

    def share_changed(self, tenant_id: int) -> None:
        """The tenant's share on this family's ledger moved: re-key it.
        An order-only change, so the gate stays clean."""
        if self._queues.get(tenant_id):
            self._heap.push(tenant_id)

    def take(self, tenant_id: int, index: int = 0) -> JobT:
        """Remove and return the tenant's ``index``-th queued job."""
        queue = self._queues[tenant_id]
        job = queue[index]
        del queue[index]
        self._depths[_kind(job)] -= 1
        return job

    # -- the pass ------------------------------------------------------- #

    def drf_order(self, total: ResourceVector) -> Iterator[int]:
        """One pass's tenants by ascending ``(share, tenant_id)`` over
        ``total``, among nonempty queues not blocked this pass.

        The caller must :meth:`take` from or :meth:`block` each yielded
        tenant before drawing the next, and must exhaust the iterator:
        a blocked tenant's heap entry is stashed when the next tenant is
        drawn, and the stash is re-pushed when the pass runs dry."""
        self._totals = (total.cpus, total.gpus)
        blocked = self._blocked
        blocked.clear()
        if not self._incremental:
            while True:
                best = self.linear_min(
                    self._ledger, self._queues, blocked, *self._totals
                )
                if best is None:
                    return
                yield best[1]
        heap = self._heap
        heap.configure(total.cpus, total.gpus)
        if heap.needs_rebuild:
            heap.rebuild(self._queues)
        while True:
            entry = heap.pop_min(self._queues, blocked)
            if entry is None:
                heap.flush_stash()
                return
            yield entry[1]
            if entry[1] in blocked:
                # A blocked tenant starts nothing, so its share cannot
                # move this pass: the entry is re-pushed as it is.
                heap.stash(entry)

    def block(self, tenant_id: int) -> None:
        """Nothing in the tenant's window fits: skip it for the rest of
        the pass."""
        self._blocked.add(tenant_id)

    @staticmethod
    def linear_min(
        ledger: UsageLedger,
        queues: Dict[int, Any],
        blocked: Collection[int],
        total_cpus: int,
        total_gpus: int,
    ) -> Optional[Tuple[float, int]]:
        """Minimum ``(share, tenant_id)`` over the nonempty, unblocked
        ``queues`` by a linear scan: the reference pick, and what IV013
        holds the heap to."""
        best: Optional[Tuple[float, int]] = None
        for tenant_id, queue in queues.items():
            if not queue or tenant_id in blocked:
                continue
            key = (
                ledger.dominant_share(tenant_id, total_cpus, total_gpus),
                tenant_id,
            )
            if best is None or key < best:
                best = key
        return best

    # -- reads ---------------------------------------------------------- #

    def head(self, tenant_id: int) -> JobT:
        return self._queues[tenant_id][0]

    def window_of(self, tenant_id: int) -> Iterator[JobT]:
        """The tenant's jobs a pass may examine, head first."""
        return islice(self._queues[tenant_id], self.window)

    def jobs(self) -> Iterator[JobT]:
        for queue in self._queues.values():
            yield from queue

    # -- checkpoint / restore ------------------------------------------- #
    #
    # A restore moves the shared depths by the jobs it drops and loads;
    # the heap rebuilds at the next pass, and re-arming the gate is the
    # policy's (it resets every group at once).

    STATE = Struct((None, "_queues", DictOf(INT_KEY, ListOf(JOB, deque))))

    def _before_load(self) -> None:
        for job in self.jobs():
            self._depths[_kind(job)] -= 1

    def _after_load(self, refs: Refs) -> None:
        for job in self.jobs():
            self._depths[_kind(job)] += 1
        self._heap.invalidate()


def _kind(job: Job) -> int:
    """Index of ``job``'s kind in ``[gpu, cpu]`` depth counts."""
    return 0 if isinstance(job, GpuJob) else 1
