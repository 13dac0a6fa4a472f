"""The runtime invariant auditor.

Attaches to a :class:`~repro.sim.engine.Engine` as a post-event observer
and, at a configurable simulated-time cadence, sweeps the conservation
laws the evaluation rests on:

* **IV001** — per-node bounds: core/GPU usage never negative, never above
  capacity, share bookkeeping internally consistent, the O(1) free-GPU
  count equal to a device walk, downed nodes empty;
* **IV002** — cluster-wide conservation: the maintained usage totals
  equal a fresh walk of node core counters and owned GPU devices, used +
  free == total, and the sum of all allocations equals the used vector,
  under allocate/preempt/fault/restart alike;
* **IV003** — event-clock monotonicity: fired events never move backwards
  in time;
* **IV004** — allocation/residency agreement: every cluster allocation is
  mirrored by node shares and vice versa (no orphaned residents);
* **IV005** — DRF dominant-share bounds: per-tenant ledger usage stays
  non-negative and dominant shares stay within [0, 1];
* **IV006** — throttle-state sanity: MBA throttles only on MBA-capable
  nodes, only at hardware levels, only on resident jobs;
* **IV007** — quarantine residency: no running job resides on a node the
  health tracker currently holds in QUARANTINED state (placement must
  skip such nodes; quarantine entry must have evicted residents);
* **IV008** — health-index soundness: the tracker's quarantined and
  de-prioritized lists equal a from-scratch recomputation of every
  record's state at ``now`` (:meth:`NodeHealthTracker.states_at`, which
  mutates nothing), and no deadline- or strike-index entry that was due
  at the tracker's last drained ``now`` is still armed;
* **IV009** — lazy completion timers: every running GPU/CPU job's armed
  completion handle is live and fires no later than the record's
  authoritative ``completion_time``.  Repricing may leave a timer armed
  early (it fires stale and re-arms), never late — validate-on-pop is
  only sound in that direction.  Checked only when attached to a
  :class:`~repro.experiments.runner.SimulationRunner`.
* **IV010** — CPU census: the multi-array scheduler's maintained
  per-node ``_cpu_used`` map equals a fresh walk of its tracked CPU
  jobs (``_cpu_census_build``).  Checked while the pass gate is
  enabled (the census is walked, not served, under
  ``REPRO_REFERENCE=1``).
* **IV011** — activity-indexed monitor: every observable (up,
  unquarantined) node outside the runner's monitor active set is
  telemetry-up, holds no MBA throttle, and hosts no CPU job or sits
  below the eliminator's bandwidth threshold — the only nodes whose
  eager monitor check would refresh a sample stamp and nothing else.
  Checked only while the eliminator's pressure watch is installed.
* **IV012** — queue depths: the scheduler's O(1) ``queue_depths()``
  equals a walk of its queues, so a pass skipped for empty queues
  really had nothing queued.
* **IV013** — share heaps: in every incremental
  :class:`~repro.schedulers.base.TenantQueues` family whose heap is
  built, each tenant with a nonempty queue has a heap entry carrying
  its current dominant share, so the heap's pick (its least entry that
  is still current) equals :meth:`TenantQueues.linear_min`.
* **IV014** — priced-speed soundness: every running GPU job's speed and
  utilization, and every running CPU job's speed, equal a fresh
  recomputation from current cluster state (each progress record's pure
  ``recheck``).  The runner reprices only jobs whose speed inputs moved;
  a job this check catches was skipped although an input moved.  Checked
  only when attached to a runner.
* **IV015** — borrow table: the multi-array scheduler's per-node
  ``_borrow_index`` is exactly the inverse of ``_borrowed``, its GPU
  flag set exactly for borrowers holding a GPU-ledger share, and no
  borrower is a tracked CPU job.  The last part is why
  the CPU census needs no correction for a pass's preempted victims:
  every victim is a borrower.
* **IV017** — fair-share residents: every DRF ledger footprint and every
  borrow entry belongs to a job that is queued, running, or waiting out
  a re-queue backoff.  A finished or dead job must not keep its tenant
  charged.  Checked only when attached to a runner.

Sweeps run on the first event of every ``interval_s``-aligned window of
simulated time, a pure function of the fired event times, so a run
resumed from a checkpoint (:meth:`InvariantAuditor.resume`) sweeps at
exactly the instants the uninterrupted run does.

Because the auditor is an observer — it schedules no events and never
touches the clock — an audited run is byte-identical to an unaudited one.
Violations land in the collector's :class:`~repro.metrics.audit.AuditStats`
(``FaultStats``-style); with ``strict=True`` the first violation raises
:class:`InvariantViolationError` instead, which is how the CI test run
fails fast on a conservation bug.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.mba import MBA_LEVELS
from repro.core.multiarray import MultiArrayScheduler
from repro.experiments.runner import SimulationRunner
from repro.health.tracker import NodeHealthState
from repro.metrics.audit import AuditStats, InvariantViolation
from repro.schedulers.base import Scheduler, TenantQueues, depths_of
from repro.schedulers.drf import DrfScheduler
from repro.sim.engine import Engine
from repro.sim.events import Event

#: Default sweep cadence (simulated seconds) — matches the runner's
#: cluster-sampling default so week-long runs stay cheap.
DEFAULT_AUDIT_INTERVAL_S = 300.0

#: Slack for float comparisons (dominant shares are ratios of ints).
_EPS = 1e-9


class InvariantViolationError(AssertionError):
    """Raised in strict mode when a conservation law breaks."""

    def __init__(self, violation: InvariantViolation) -> None:
        super().__init__(violation.render())
        self.violation = violation


class InvariantAuditor:
    """Sweeps conservation laws over a live simulation at a fixed cadence."""

    def __init__(
        self,
        interval_s: float = DEFAULT_AUDIT_INTERVAL_S,
        *,
        strict: bool = False,
        stats: Optional[AuditStats] = None,
    ) -> None:
        if interval_s <= 0:
            raise ValueError(f"non-positive audit interval: {interval_s}")
        self.interval_s = interval_s
        self.strict = strict
        self.stats = stats if stats is not None else AuditStats()
        self._engine: Optional[Engine] = None
        self._cluster: Optional[Cluster] = None
        self._scheduler: Optional[Scheduler] = None
        self._runner: Optional["SimulationRunner"] = None
        #: Time of the last event observed (None: none yet, so the next
        #: event opens a window and sweeps).
        self._last_time: Optional[float] = None

    # ------------------------------------------------------------------ #
    # Wiring

    def attach(self, runner: "SimulationRunner") -> None:
        """Audit ``runner``'s engine/cluster; violations go to its collector."""
        self.attach_engine(
            runner.engine,
            runner.cluster,
            scheduler=runner.scheduler,
            stats=runner.collector.audit,
        )
        self._runner = runner

    def attach_engine(
        self,
        engine: Engine,
        cluster: Cluster,
        *,
        scheduler: Optional[Scheduler] = None,
        stats: Optional[AuditStats] = None,
    ) -> None:
        """Register as a post-event observer of ``engine``."""
        if self._engine is not None:
            raise RuntimeError("invariant auditor already attached")
        self._engine = engine
        self._cluster = cluster
        self._scheduler = scheduler
        if stats is not None:
            self.stats = stats
        self.resume()
        engine.add_observer(self._on_event)

    def resume(self) -> None:
        """Take the sweep cadence from the engine's clock: at attach, and
        after a checkpoint restore moved it, as if the run never stopped."""
        engine = self._engine
        assert engine is not None
        self._last_time = engine.now if engine.fired else None

    def detach(self) -> None:
        """Stop observing and let go of the runner. Idempotent.

        The cluster and scheduler stay, so :meth:`check_now` can still
        sweep a finished run's final state.
        """
        if self._engine is not None:
            self._engine.remove_observer(self._on_event)
            self._engine = None
        self._runner = None

    # ------------------------------------------------------------------ #
    # Observation

    def _on_event(self, event: Event) -> None:
        engine = self._engine
        if engine is None:  # pragma: no cover - detach() races are a no-op
            return
        last = self._last_time
        if last is not None:
            self._assert(
                event.time >= last - _EPS,
                "IV003",
                lambda: (
                    f"event {event.tag!r} fired at {event.time}, before "
                    f"the previously-fired event at {last} — the event "
                    "clock moved backwards"
                ),
            )
        self._last_time = event.time if last is None else max(last, event.time)
        if last is None or engine.now // self.interval_s > last // self.interval_s:
            self.check_now()

    # ------------------------------------------------------------------ #
    # The sweep

    def check_now(self) -> int:
        """Run every invariant check once; returns new violation count."""
        if self._cluster is None:
            raise RuntimeError("invariant auditor is not attached")
        before = self.stats.violation_count
        self.stats.checks_run += 1
        self._check_node_bounds(self._cluster)
        self._check_conservation(self._cluster)
        self._check_allocation_residency(self._cluster)
        self._check_throttle_states(self._cluster)
        self._check_quarantine_residency(self._cluster)
        self._check_health_index(self._cluster)
        if self._runner is not None:
            self._check_completion_timers(self._runner)
            self._check_monitor_index(self._runner)
            self._check_priced_speeds(self._runner)
            self._check_fair_share_residents(self._runner)
        if self._scheduler is not None:
            self._check_queue_depths(self._scheduler)
            self._check_share_heaps(self._scheduler)
        if isinstance(self._scheduler, MultiArrayScheduler):
            self._check_cpu_census(self._scheduler, self._cluster)
            self._check_borrow_table(self._scheduler)
        if isinstance(self._scheduler, DrfScheduler):
            self._check_drf_shares(self._scheduler, self._cluster)
        return self.stats.violation_count - before

    def _assert(
        self, condition: bool, code: str, message: Callable[[], str]
    ) -> None:
        self.stats.assertions_evaluated += 1
        if condition:
            return
        now = self._engine.now if self._engine is not None else 0.0
        violation = self.stats.record(now, code, message())
        if self.strict:
            raise InvariantViolationError(violation)

    # -- IV001 ---------------------------------------------------------- #

    def _check_node_bounds(self, cluster: Cluster) -> None:
        for node in cluster.nodes:
            self._assert(
                node.used_cpus >= 0,
                "IV001",
                lambda node=node: (
                    f"node {node.node_id} core usage negative: "
                    f"{node.used_cpus}"
                ),
            )
            self._assert(
                node.used_cpus <= node.total_cpus,
                "IV001",
                lambda node=node: (
                    f"node {node.node_id} cores oversubscribed: "
                    f"{node.used_cpus}/{node.total_cpus}"
                ),
            )
            share_cpus = sum(
                node.share_of(job_id).cpus for job_id in node.jobs_here()
            )
            self._assert(
                share_cpus == node.used_cpus,
                "IV001",
                lambda node=node, share_cpus=share_cpus: (
                    f"node {node.node_id} share sum {share_cpus} != used "
                    f"core counter {node.used_cpus}"
                ),
            )
            owned: Set[int] = set()
            for job_id in sorted(node.jobs_here()):
                share = node.share_of(job_id)
                for gpu_id in share.gpu_ids:
                    self._assert(
                        gpu_id not in owned,
                        "IV001",
                        lambda node=node, gpu_id=gpu_id: (
                            f"node {node.node_id} GPU {gpu_id} appears in "
                            "two shares (double allocation)"
                        ),
                    )
                    owned.add(gpu_id)
                    self._assert(
                        0 <= gpu_id < node.total_gpus
                        and node.gpus[gpu_id].owner == job_id,
                        "IV001",
                        lambda node=node, gpu_id=gpu_id, job_id=job_id: (
                            f"node {node.node_id} GPU {gpu_id} share/owner "
                            f"mismatch for job {job_id}"
                        ),
                    )
            self._assert(
                len(owned) == node.used_gpus,
                "IV001",
                lambda node=node, owned=owned: (
                    f"node {node.node_id} owns {node.used_gpus} GPUs but "
                    f"shares cover {len(owned)}"
                ),
            )
            free_gpus = len(node.free_gpu_ids)
            self._assert(
                node.free_gpus == free_gpus,
                "IV001",
                lambda node=node, free_gpus=free_gpus: (
                    f"node {node.node_id} free GPU count {node.free_gpus} != "
                    f"device walk {free_gpus}"
                ),
            )
            self._assert(
                node.is_up or not node.jobs_here(),
                "IV001",
                lambda node=node: (
                    f"downed node {node.node_id} still hosts "
                    f"{sorted(node.jobs_here())}"
                ),
            )

    # -- IV002 ---------------------------------------------------------- #

    def _check_conservation(self, cluster: Cluster) -> None:
        try:
            total, used, free = cluster.total, cluster.used, cluster.free
        except ValueError as error:
            # ResourceVector refuses negative totals outright, so badly
            # corrupted counters surface here instead of as a comparison.
            self._assert(
                False,
                "IV002",
                lambda error=error: f"cluster usage unrepresentable: {error}",
            )
            return
        self._assert(
            used.cpus >= 0 and used.gpus >= 0,
            "IV002",
            lambda: f"cluster usage went negative: {used}",
        )
        self._assert(
            used.cpus + free.cpus == total.cpus
            and used.gpus + free.gpus == total.gpus,
            "IV002",
            lambda: (
                f"resources not conserved: used {used} + free {free} != "
                f"total {total}"
            ),
        )
        # The maintained totals against a fresh walk: every node's core
        # counter and every owned GPU device.
        walk_cpus = sum(node.used_cpus for node in cluster.nodes)
        walk_gpus = sum(
            gpu.owner is not None for node in cluster.nodes for gpu in node.gpus
        )
        self._assert(
            walk_cpus == used.cpus and walk_gpus == used.gpus,
            "IV002",
            lambda walk_cpus=walk_cpus, walk_gpus=walk_gpus: (
                f"maintained usage {used.cpus}c/{used.gpus}g != node walk "
                f"{walk_cpus}c/{walk_gpus}g"
            ),
        )
        alloc_cpus = alloc_gpus = 0
        for allocation in cluster.allocations().values():
            for share in allocation.shares:
                alloc_cpus += share.cpus
                alloc_gpus += len(share.gpu_ids)
        self._assert(
            alloc_cpus == used.cpus and alloc_gpus == used.gpus,
            "IV002",
            lambda alloc_cpus=alloc_cpus, alloc_gpus=alloc_gpus: (
                f"allocation ledger ({alloc_cpus}c/{alloc_gpus}g) "
                f"disagrees with node usage ({used.cpus}c/{used.gpus}g)"
            ),
        )

    # -- IV004 ---------------------------------------------------------- #

    def _check_allocation_residency(self, cluster: Cluster) -> None:
        for job_id, allocation in sorted(cluster.allocations().items()):
            for share in allocation.shares:
                node = cluster.node(share.node_id)
                self._assert(
                    node.holds(job_id)
                    and node.share_of(job_id).cpus == share.cpus
                    and node.share_of(job_id).gpu_ids == share.gpu_ids,
                    "IV004",
                    lambda job_id=job_id, share=share: (
                        f"allocation of {job_id} not mirrored on node "
                        f"{share.node_id}"
                    ),
                )
        for node in cluster.nodes:
            for job_id in sorted(node.jobs_here()):
                self._assert(
                    cluster.has_allocation(job_id),
                    "IV004",
                    lambda node=node, job_id=job_id: (
                        f"node {node.node_id} hosts {job_id} which has no "
                        "cluster allocation (orphaned resident)"
                    ),
                )

    # -- IV005 ---------------------------------------------------------- #

    def _check_drf_shares(self, scheduler: DrfScheduler, cluster: Cluster) -> None:
        total = cluster.total
        ledger = scheduler._ledger
        # Tenants with a running job, read from the footprints: the
        # ledger's own per-tenant entries are what this check audits.
        tenant_ids = sorted(
            {tenant_id for tenant_id, _, _ in ledger._job_footprint.values()}
        )
        for tenant_id in tenant_ids:
            usage = ledger.usage_of(tenant_id)
            self._assert(
                usage.cpus >= 0 and usage.gpus >= 0,
                "IV005",
                lambda tenant_id=tenant_id, usage=usage: (
                    f"tenant {tenant_id} ledger usage negative: "
                    f"{usage.cpus}c/{usage.gpus}g"
                ),
            )
            share = ledger.dominant_share(tenant_id, total.cpus, total.gpus)
            self._assert(
                -_EPS <= share <= 1.0 + _EPS,
                "IV005",
                lambda tenant_id=tenant_id, share=share: (
                    f"tenant {tenant_id} dominant share out of [0, 1]: "
                    f"{share}"
                ),
            )

    # -- IV006 ---------------------------------------------------------- #

    def _check_throttle_states(self, cluster: Cluster) -> None:
        for node in cluster.nodes:
            throttled = node.mba.throttled_jobs()
            if not throttled:
                continue
            self._assert(
                node.mba.supported,
                "IV006",
                lambda node=node: (
                    f"node {node.node_id} has MBA throttles but no MBA "
                    "hardware support"
                ),
            )
            for job_id, level in sorted(throttled.items()):
                self._assert(
                    any(abs(level - known) < _EPS for known in MBA_LEVELS),
                    "IV006",
                    lambda job_id=job_id, level=level: (
                        f"job {job_id} throttled at {level}, not a "
                        "hardware MBA level"
                    ),
                )
                self._assert(
                    node.holds(job_id),
                    "IV006",
                    lambda node=node, job_id=job_id: (
                        f"node {node.node_id} throttles {job_id} which is "
                        "not resident there"
                    ),
                )

    # -- IV007 ---------------------------------------------------------- #

    def _check_quarantine_residency(self, cluster: Cluster) -> None:
        """No job may run on a quarantined node.

        ``quarantined_nodes`` is a pure deadline query — the tracker's
        state transitions anchor to times fixed at quarantine entry — so
        this sweep observes without perturbing the run.
        """
        now = self._engine.now if self._engine is not None else 0.0
        for node_id in cluster.health.quarantined_nodes(now):
            node = cluster.node(node_id)
            self._assert(
                not node.jobs_here(),
                "IV007",
                lambda node=node: (
                    f"quarantined node {node.node_id} still hosts "
                    f"{sorted(node.jobs_here())}"
                ),
            )

    # -- IV008 ---------------------------------------------------------- #

    def _check_health_index(self, cluster: Cluster) -> None:
        """The deadline index agrees with a full recomputation.

        The list queries drain due transitions, which is the same
        idempotent catch-up any later query would perform;
        ``states_at`` reads the records without touching them.
        """
        now = self._engine.now if self._engine is not None else 0.0
        health = cluster.health
        quarantined = health.quarantined_nodes(now)
        flagged = health.deprioritized_nodes(now)
        states = health.states_at(now)
        expected_q = sorted(
            node_id
            for node_id, state in states.items()
            if state is NodeHealthState.QUARANTINED
        )
        expected_f = sorted(
            node_id
            for node_id, state in states.items()
            if state is NodeHealthState.SUSPECT
            or state is NodeHealthState.PROBATION
        )
        self._assert(
            quarantined == expected_q,
            "IV008",
            lambda: (
                f"health index lists quarantined nodes {quarantined}, "
                f"recomputation at t={now} gives {expected_q}"
            ),
        )
        self._assert(
            flagged == expected_f,
            "IV008",
            lambda: (
                f"health index lists de-prioritized nodes {flagged}, "
                f"recomputation at t={now} gives {expected_f}"
            ),
        )
        self._assert(
            not health.overdue(),
            "IV008",
            lambda: (
                "health index still arms an entry that was due at its "
                f"last drain (t={health.drained_now})"
            ),
        )

    # -- IV009 ---------------------------------------------------------- #

    def _check_completion_timers(self, runner: "SimulationRunner") -> None:
        """No armed completion timer fires after its record's
        authoritative completion time (nor is it missing or cancelled)."""
        running = runner.progress.running
        for job_id in sorted(running):
            record = running[job_id]
            handle = record.completion
            self._assert(
                handle is not None
                and not handle.cancelled
                and handle.time <= record.completion_time,
                "IV009",
                lambda job_id=job_id, record=record: (
                    f"job {job_id}'s completion timer "
                    f"{record.completion!r} is not armed at or before "
                    f"its completion time {record.completion_time}"
                ),
            )

    # -- IV010 ---------------------------------------------------------- #

    def _check_cpu_census(
        self, scheduler: MultiArrayScheduler, cluster: Cluster
    ) -> None:
        """The maintained CPU census is what a walk would serve, from
        the first sweep after a restore on (the restore rebuilds it from
        the restored tracked jobs)."""
        if not scheduler._gate.enabled:
            return
        maintained = scheduler._cpu_used
        walked = scheduler._cpu_census_build(cluster, set())
        self._assert(
            maintained == walked,
            "IV010",
            lambda: (
                f"maintained CPU census {sorted(maintained.items())} != "
                f"walked census {sorted(walked.items())}"
            ),
        )

    # -- IV011 ---------------------------------------------------------- #

    def _check_monitor_index(self, runner: "SimulationRunner") -> None:
        """A node the monitor skips is one its tick could not act on."""
        threshold = runner._monitor_threshold
        if threshold is None:
            return
        now = self._engine.now if self._engine is not None else 0.0
        cluster = runner.cluster
        skipped = set(range(len(cluster.nodes))) - runner._monitor_active
        skipped.difference_update(cluster.health.quarantined_nodes(now))
        for node_id in sorted(skipped):
            node = cluster.node(node_id)
            if not node.is_up:
                continue
            bandwidth = node.bandwidth
            self._assert(
                bandwidth.telemetry_up(now)
                and not node.mba.has_throttles()
                and (
                    not bandwidth.has_cpu_jobs()
                    or bandwidth.pressure < threshold
                ),
                "IV011",
                lambda node=node, bandwidth=bandwidth: (
                    f"node {node.node_id} is outside the monitor's active "
                    f"set but telemetry_up={bandwidth.telemetry_up(now)}, "
                    f"throttles={node.mba.has_throttles()}, "
                    f"cpu_jobs={bandwidth.has_cpu_jobs()}, pressure "
                    f"{bandwidth.pressure} vs threshold {threshold}"
                ),
            )

    # -- IV012 ---------------------------------------------------------- #

    def _check_queue_depths(self, scheduler: Scheduler) -> None:
        depths = scheduler.queue_depths()
        walked = depths_of(scheduler.pending_jobs())
        self._assert(
            depths == walked,
            "IV012",
            lambda: (
                f"{scheduler.name} reports queue depths (gpu, cpu) = "
                f"{depths}, a walk of its queues gives {walked}"
            ),
        )

    # -- IV013 ---------------------------------------------------------- #

    def _check_share_heaps(self, scheduler: Scheduler) -> None:
        """Every queued tenant has a current heap entry, so the heap
        picks what the linear scan picks.  A heap awaiting its rebuild
        (before the first pass, after a restore) is rebuilt from the
        queues before it is next read, so it holds vacuously: a resumed
        audit counts the assertions the uninterrupted one does."""
        for family in scheduler.families:
            if not family._incremental:
                continue
            heap = family._heap
            missing: List[Tuple[float, int]] = []
            pick: Optional[Tuple[float, int]] = None
            expected: Optional[Tuple[float, int]] = None
            if not heap.needs_rebuild:
                ledger, queues = family._ledger, family._queues
                total_cpus, total_gpus = family._totals
                entries = set(heap._entries).union(heap._stash)
                current = {
                    (
                        ledger.dominant_share(tenant_id, total_cpus, total_gpus),
                        tenant_id,
                    )
                    for tenant_id, queue in queues.items()
                    if queue
                }
                missing = sorted(current - entries)
                pick = min(current & entries, default=None)
                expected = TenantQueues.linear_min(
                    ledger, queues, (), total_cpus, total_gpus
                )
            self._assert(
                not missing and pick == expected,
                "IV013",
                lambda: (
                    f"{scheduler.name} family {family.group!r}: queued "
                    f"tenants without a current heap entry {missing}; the "
                    f"heap picks {pick}, the linear scan {expected}"
                ),
            )

    # -- IV014 ---------------------------------------------------------- #

    def _check_priced_speeds(self, runner: "SimulationRunner") -> None:
        """Every running job's priced speed is what its inputs give now."""
        progress = runner.progress
        for job_id in sorted(progress.running):
            priced, fresh = progress.running[job_id].recheck(progress)
            self._assert(
                priced == fresh,
                "IV014",
                lambda job_id=job_id, priced=priced, fresh=fresh: (
                    f"job {job_id} is priced at {priced}; current cluster "
                    f"state gives {fresh}"
                ),
            )

    # -- IV015 ---------------------------------------------------------- #

    def _check_borrow_table(self, scheduler: MultiArrayScheduler) -> None:
        """The borrow index is the borrow map inverted, flagged by each
        borrower's ledger, and borrowers and tracked CPU jobs stay apart."""
        borrowed = scheduler._borrowed
        gpu_charged = scheduler._gpu_ledger._job_footprint
        expected: Dict[int, Dict[str, bool]] = {}
        for job_id, node_id in borrowed.items():
            expected.setdefault(node_id, {})[job_id] = job_id in gpu_charged
        index = scheduler._borrow_index
        self._assert(
            index == expected,
            "IV015",
            lambda: (
                f"borrow index {sorted(index.items())} is not the borrow "
                f"map inverted and GPU-flagged: {sorted(expected.items())}"
            ),
        )
        both = sorted(borrowed.keys() & scheduler._tracked.keys())
        self._assert(
            not both,
            "IV015",
            lambda: f"jobs {both} are both borrowers and tracked CPU jobs",
        )

    # -- IV017 ---------------------------------------------------------- #

    def _check_fair_share_residents(self, runner: "SimulationRunner") -> None:
        """Only queued, running and backing-off jobs hold a ledger
        footprint or a borrow entry."""
        scheduler = runner.scheduler
        live = {job.job_id for job in scheduler.pending_jobs()}
        live.update(runner.progress.running)
        live.update(job_id for job_id, in scheduler._backing_off())
        charged = set(getattr(scheduler, "_borrowed", ()))
        for family in scheduler.families:
            charged.update(family._ledger._job_footprint)
        stray = sorted(charged - live)
        self._assert(
            not stray,
            "IV017",
            lambda: (
                f"jobs {stray} hold a fair-share ledger footprint or a "
                f"borrow entry, but are neither queued, running nor "
                f"waiting to be re-queued"
            ),
        )

    # ------------------------------------------------------------------ #

    def report(self) -> str:
        """Human-readable audit summary (one line, plus any violations)."""
        sweeps, assertions, violations = self.stats.summary()
        lines = [
            f"invariant audit: {sweeps} sweep(s), {assertions} assertion(s), "
            f"{violations} violation(s)"
        ]
        lines.extend(v.render() for v in self.stats.violations)
        return "\n".join(lines)
