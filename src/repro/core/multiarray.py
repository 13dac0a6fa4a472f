"""The multi-array job scheduler (Sec. V-C, Fig. 9).

Queue structure:

* one DRF-scheduled **CPU job array** (dominant resource: CPU cores) whose
  jobs normally live on the unreserved cores of every node;
* one DRF-scheduled **GPU job array** (dominant resource: GPUs) whose jobs
  receive their core counts from the adaptive CPU allocator, split into a
  **4-GPU sub-array** (jobs demanding >= 4 GPUs, on the GPU-densest nodes)
  and a **1-GPU sub-array** (everything else).

Cross-array elasticity:

* when every GPU queue is empty, CPU jobs may *borrow* the reserved cores
  of the GPU array; an arriving GPU job that needs them aborts the
  borrowers, which "re-enter the array head" losing their progress;
* a small GPU job may borrow 4-GPU sub-array nodes when its own sub-array
  is full; when a big job needs the node back, the borrower is *migrated*
  (preempted with progress preserved — containerized checkpoint/restore)
  and re-queued at its array head;
* a big GPU job overflows into the 1-GPU sub-array when its own is full.

Failure resilience: a job displaced by an infrastructure failure (node
crash, GPU failure) takes the same abort/re-queue path as a preempted
borrower — :meth:`job_preempted` puts it back at its array head, so it is
the next of its kind to run once capacity returns.  Whether any progress
survived (checkpoint-restart for trainers) is decided by the runner, not
the queues.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.cluster.cluster import Cluster
from repro.core.allocator import AdaptiveCpuAllocator
from repro.core.arrays import (
    DEFAULT_FOUR_GPU_FRACTION,
    DEFAULT_RESERVED_CORES,
    FOUR_GPU_THRESHOLD,
    ArrayLayout,
    build_layout,
)
from repro.health.restarts import RestartPolicy
from repro.schedulers.base import (
    Decision,
    PreemptDecision,
    Scheduler,
    StartDecision,
    TenantQueues,
    UsageLedger,
)
from repro.schedulers.dirty import PassGate
from repro.schedulers.placement import (
    FreeState,
    Placement,
    place_cpu_job,
    place_gpu_job,
)
from repro.sim.state import INT, JOB_ID, NESTED, NODE_ID, DictOf, ListOf, Refs, Row
from repro.sim.state import Struct
from repro.workload.job import CpuJob, GpuJob, Job


class MultiArrayScheduler(Scheduler):
    """CODA's queue-and-placement policy."""

    name = "multi-array"

    def __init__(
        self,
        allocator: Optional[AdaptiveCpuAllocator] = None,
        *,
        reserved_cores: int = DEFAULT_RESERVED_CORES,
        four_gpu_fraction: float = DEFAULT_FOUR_GPU_FRACTION,
        contention_aware: bool = False,
        rack_aware: bool = False,
        restart_policy: Optional[RestartPolicy] = None,
    ) -> None:
        super().__init__(restart_policy=restart_policy)
        self.allocator = allocator or AdaptiveCpuAllocator()
        self._reserved_cores = reserved_cores
        self._four_gpu_fraction = four_gpu_fraction
        #: Extension (off by default, not part of the paper's design): when
        #: enabled, GPU placement prefers nodes whose memory-bandwidth and
        #: PCIe budgets can absorb the new job without crossing the
        #: contention threshold.
        self.contention_aware = contention_aware
        #: Extension: prefer keeping a multi-node gang inside one rack so
        #: its gradient sync rides the full-speed intra-rack fabric.
        self.rack_aware = rack_aware
        self._topology = None
        self._layout: Optional[ArrayLayout] = None

        self._gpu_ledger = UsageLedger()
        self._cpu_ledger = UsageLedger()
        #: Incremental-pass state (see docs/scheduler-internals.md): one
        #: gate group per queue family.
        self._gate = PassGate(("gpu_big", "gpu_small", "inference", "cpu"))
        #: Queued ``[gpu, cpu]`` jobs, moved by the families.
        self._depths = [0, 0]
        #: Separate sub-array queues (Fig. 9): a blocked 4-GPU job must not
        #: head-of-line block its tenant's 1-GPU jobs, and vice versa.
        self._gpu_big: TenantQueues[GpuJob] = TenantQueues(
            "gpu_big",
            self._gpu_ledger,
            self._gate,
            self._depths,
            window=self.BACKFILL_DEPTH,
        )
        self._gpu_small: TenantQueues[GpuJob] = TenantQueues(
            "gpu_small",
            self._gpu_ledger,
            self._gate,
            self._depths,
            window=self.BACKFILL_DEPTH,
        )
        #: User-facing inference jobs outrank everything (Sec. V-A): their
        #: own queues drain first and may use any free cores.
        self._inference: TenantQueues[CpuJob] = TenantQueues(
            "inference", self._cpu_ledger, self._gate, self._depths
        )
        self._cpu: TenantQueues[CpuJob] = TenantQueues(
            "cpu", self._cpu_ledger, self._gate, self._depths
        )
        #: The families on each ledger: a share change re-keys the tenant
        #: in both (see :meth:`_rekey`).
        self._gpu_families = (self._gpu_big, self._gpu_small)
        self._cpu_families = (self._inference, self._cpu)
        self.families = self._gpu_families + self._cpu_families

        #: Non-borrowing, non-inference CPU jobs: job_id -> ``[home
        #: node_id, cores]``; cores move through :meth:`cpu_job_resized`.
        #: No key is also in ``_borrowed`` (IV015).
        self._tracked: Dict[str, List[int]] = {}
        #: The CPU-array census (see ``_cpu_census``): per-node cores of
        #: the tracked jobs, moved with every ``_tracked`` change.
        self._cpu_used: Dict[int, int] = {}
        #: Static per-cluster placement inputs, filled when the layout is
        #: first built (node totals never change after construction).
        self._biggest_node_cores: int = 0
        #: (node_id, CPU-array cores) per node, in node order.
        self._cpu_capacity: List[Tuple[int, int]] = []
        #: Borrowers of either kind (CPU jobs on reserved cores, small GPU
        #: jobs on 4-GPU sub-array nodes): job_id -> node_id.
        self._borrowed: Dict[str, int] = {}
        #: Borrowers a pass planned that have not started yet.
        self._pending_borrow: Set[str] = set()
        #: Inverse of ``_borrowed``: node_id -> {job_id: is a GPU job}, so
        #: reclaim scans touch only nodes that actually host borrowers.
        self._borrow_index: Dict[int, Dict[str, bool]] = {}

        #: ``gpu_queue_empty()`` at the end of the last pass; a flip to
        #: idle gives blocked CPU jobs new borrow options without any
        #: capacity being freed, so it must dirty the "cpu" group.
        self._gpu_idle_prev = True
        #: Per-pass memo of placement *shapes* that failed the full
        #: cascade, keyed by (num_nodes, gpus_per_node, total_gpus,
        #: cores, model) and stamped with the free-state mutation count:
        #: an identical request at an identical snapshot must fail again,
        #: so the whole cascade is skipped.  Reset at the top of every
        #: pass.
        self._place_memo: Dict[
            Tuple[int, int, int, int, Optional[str]], int
        ] = {}

    # ------------------------------------------------------------------ #
    # Scheduler interface

    @property
    def layout(self) -> Optional[ArrayLayout]:
        return self._layout

    def submit(self, job: Job, now: float) -> None:
        self._family_of(job).submit(job)

    def _family_of(self, job: Job) -> TenantQueues[Any]:
        if isinstance(job, GpuJob):
            if job.setup.total_gpus >= FOUR_GPU_THRESHOLD:
                return self._gpu_big
            return self._gpu_small
        if isinstance(job, CpuJob):
            return self._inference if job.is_inference else self._cpu
        raise TypeError(f"unknown job type: {type(job).__name__}")

    def job_started(
        self, job: Job, placements: Sequence[Tuple[int, int, int]], now: float
    ) -> None:
        # DRF shares were charged at decision time (so one pass stays fair
        # across tenants); here only the placement-dependent state lands.
        job_id = job.job_id
        if job_id in self._pending_borrow:
            self._pending_borrow.discard(job_id)
            self._borrow(job_id, placements[0][0], isinstance(job, GpuJob))
        elif isinstance(job, CpuJob) and not job.is_inference:
            self._track(job_id, placements[0][0], job.cores)

    def _borrow(self, job_id: str, node_id: int, is_gpu: bool) -> None:
        self._borrowed[job_id] = node_id
        self._borrow_index.setdefault(node_id, {})[job_id] = is_gpu

    def _track(self, job_id: str, node_id: int, cores: int) -> None:
        self._tracked[job_id] = [node_id, cores]
        self._cpu_used[node_id] = self._cpu_used.get(node_id, 0) + cores

    def job_finished(self, job: Job, now: float) -> None:
        self._forget(job.job_id)

    def _release_share(self, job: Job) -> None:
        self._forget(job.job_id)

    def cpu_job_resized(self, job_id: str, cores: int, now: float) -> None:
        """The eliminator halved a running CPU job's cores (relayed by the
        runner): fold the delta into the incremental census."""
        entry = self._tracked.get(job_id)
        if entry is None:
            return
        node_id, old = entry
        entry[1] = cores
        self._cpu_used[node_id] += cores - old

    def job_failed(self, job: Job, now: float) -> None:
        """An infrastructure failure killed the job: its share is already
        gone from the cluster, so drop it from the census tracking before
        the base class charges the restart budget.  The ledger share and
        any borrow entry stay until a re-queue's ``_forget`` drops them,
        or, for a job that exhausted its budget, ``_release_share``."""
        self._census_forget(job.job_id)
        super().job_failed(job, now)

    def _census_forget(self, job_id: str) -> None:
        entry = self._tracked.pop(job_id, None)
        if entry is not None:
            node_id, cores = entry
            self._cpu_used[node_id] -= cores
            if not self._cpu_used[node_id]:
                del self._cpu_used[node_id]

    def job_preempted(self, job: Job, now: float, *, preserve_progress: bool) -> None:
        self._forget(job.job_id)
        self._family_of(job).requeue(job)

    def _forget(self, job_id: str) -> None:
        gpu_footprint = self._gpu_ledger.finish(job_id)
        if gpu_footprint is not None:
            self._rekey(self._gpu_families, gpu_footprint[0])
        cpu_footprint = self._cpu_ledger.finish(job_id)
        if cpu_footprint is not None:
            self._rekey(self._cpu_families, cpu_footprint[0])
        self._census_forget(job_id)
        node_id = self._borrowed.pop(job_id, None)
        if node_id is not None:
            borrowers = self._borrow_index[node_id]
            del borrowers[job_id]
            if not borrowers:
                del self._borrow_index[node_id]
        self._pending_borrow.discard(job_id)

    @staticmethod
    def _rekey(families: Tuple[TenantQueues[Any], ...], tenant_id: int) -> None:
        """A ledger start/finish moved the tenant's share: re-key it in
        every family on that ledger."""
        for family in families:
            family.share_changed(tenant_id)

    def pending_jobs(self) -> List[Job]:
        pending = [job for family in self.families for job in family.jobs()]
        pending.sort(key=lambda job: (job.submit_time, job.job_id))
        return pending

    def queue_depths(self) -> Tuple[int, int]:
        gpu, cpu = self._depths
        return gpu, cpu

    def gpu_queue_empty(self) -> bool:
        return not self._depths[0]

    # ------------------------------------------------------------------ #
    # The scheduling pass

    def schedule(self, cluster: Cluster, now: float) -> List[Decision]:
        if self._layout is None:
            self._layout = build_layout(
                cluster,
                reserved_cores=self._reserved_cores,
                four_gpu_fraction=self._four_gpu_fraction,
            )
            self._topology = cluster.topology
            self._biggest_node_cores = max(
                node.total_cpus for node in cluster.nodes
            )
            self._cpu_capacity = [
                (
                    node.node_id,
                    self._layout.cpu_array_capacity(
                        node.total_cpus, node.total_gpus
                    ),
                )
                for node in cluster.nodes
            ]
        decisions: List[Decision] = []
        free = FreeState.of(
            cluster, now=now, reference=not self._gate.enabled
        )
        preempted: Set[str] = set()
        self._place_memo = {}
        self._schedule_gpu_array(cluster, free, decisions, preempted)
        self._schedule_cpu_array(cluster, free, decisions, preempted)
        self._gate.pass_done(cluster)
        if self._gate.enabled:
            # Cross-group coupling that no capacity-freed bump covers:
            # the GPU queues draining gives blocked CPU jobs new borrow
            # options, and freshly-planned borrowers give blocked GPU
            # jobs new *reclaim* options.
            gpu_idle = self.gpu_queue_empty()
            if gpu_idle and not self._gpu_idle_prev:
                self._gate.mark("cpu")
            self._gpu_idle_prev = gpu_idle
            if self._pending_borrow:
                self._gate.mark("gpu_big")
                self._gate.mark("gpu_small")
        return decisions

    def can_skip_pass(self, cluster: Cluster) -> bool:
        """The gate's verdict, clean groups or empty queues.

        An empty-queue skip leaves the post-pass couplings where the pass
        would have left them.  GPU jobs leave the queues only inside a
        pass, so GPU queues empty now were empty when the last pass
        ended, and ``_gpu_idle_prev`` is already True.  The pending
        borrow set empties as soon as the runner executes a pass's
        starts.  The gate keeps its older dirty set and capacity
        reading, which can only make the next pass scan more groups.
        """
        if self._layout is None:
            return False  # the first pass must build the layout
        return self._gate.can_skip_pass(cluster, sum(self._depths))

    # -------------------------- GPU array ----------------------------- #

    def _schedule_gpu_array(
        self,
        cluster: Cluster,
        free: FreeState,
        decisions: List[Decision],
        preempted: Set[str],
    ) -> None:
        # Big jobs first: they are the hardest to place and small jobs
        # backfill around them.  The DRF ledger is shared, so fairness is
        # still judged on each tenant's total GPU usage.
        if self._gate.should_scan("gpu_big", cluster):
            self._schedule_gpu_subarray(
                self._gpu_big, cluster, free, decisions, preempted
            )
        # A reclaim returns a victim's share to ``free`` mid-pass, which
        # can unblock a clean group scanned after it: once this pass has
        # planned a preemption, every later group is scanned.
        if preempted or self._gate.should_scan("gpu_small", cluster):
            self._schedule_gpu_subarray(
                self._gpu_small, cluster, free, decisions, preempted
            )

    #: How far past a tenant's blocked queue head the scheduler may look
    #: for a placeable job (bounded backfill; skipped jobs keep their
    #: position, and DRF shares keep backfilling tenants honest).
    BACKFILL_DEPTH = 4

    def _schedule_gpu_subarray(
        self,
        family: TenantQueues[GpuJob],
        cluster: Cluster,
        free: FreeState,
        decisions: List[Decision],
        preempted: Set[str],
    ) -> None:
        biggest_node = self._biggest_node_cores
        for tenant_id in family.drf_order(cluster.total):
            placed: Optional[Tuple[int, List[Placement]]] = None
            for index, job in enumerate(family.window_of(tenant_id)):
                cores = self.allocator.initial_cores(
                    job, node_cores=biggest_node
                )
                placements = self._try_place_gpu(
                    job, cores, cluster, free, decisions, preempted
                )
                if placements is not None:
                    placed = (index, placements)
                    break
            if placed is None:
                family.block(tenant_id)
                continue
            index, placements = placed
            free.commit(placements)
            job = family.take(tenant_id, index)
            # DRF inside the GPU array goes "according to the usage of GPU"
            # (Sec. V-C), so cores are not counted against the share.
            self._gpu_ledger.start(
                job.job_id, job.tenant_id, 0, job.setup.total_gpus
            )
            self._rekey(self._gpu_families, job.tenant_id)
            decisions.append(StartDecision(job=job, placements=tuple(placements)))

    def _try_place_gpu(
        self,
        job: GpuJob,
        cores: int,
        cluster: Cluster,
        free: FreeState,
        decisions: List[Decision],
        preempted: Set[str],
    ) -> Optional[List[Placement]]:
        """Memoized front door for the placement cascade.

        The cascade's outcome for a *failing* job depends only on the
        placement shape (node/GPU geometry, core request, and — under the
        contention extension — the model) plus the free snapshot, and a
        failed cascade has no side effects.  So within one pass, a shape
        that failed at the current free-state mutation stamp is
        guaranteed to fail again and the whole cascade is skipped.
        (``preempted`` only ever grows alongside a *successful* reclaim,
        which also mutates ``free``, so the stamp covers it too.)
        """
        key = (
            job.setup.num_nodes,
            job.setup.gpus_per_node,
            job.setup.total_gpus,
            cores,
            job.model_name if self.contention_aware else None,
        )
        if self._place_memo.get(key) == free.mutations:
            return None
        placements = self._try_place_gpu_uncached(
            job, cores, cluster, free, decisions, preempted
        )
        if placements is None:
            self._place_memo[key] = free.mutations
        return placements

    def _try_place_gpu_uncached(
        self,
        job: GpuJob,
        cores: int,
        cluster: Cluster,
        free: FreeState,
        decisions: List[Decision],
        preempted: Set[str],
    ) -> Optional[List[Placement]]:
        """The full placement cascade for one job: slimming ladder over
        undisturbing placements first, then over borrower reclaims."""
        ladder = self._core_ladder(job, cores)
        if (
            self.rack_aware
            and job.setup.num_nodes > 1
            and self._topology is not None
            and self._topology.num_racks > 1
        ):
            # Try to keep the gang inside one rack at the full core count.
            for rack_id in self._topology.racks():
                placements = self._place_gpu_plain(
                    job,
                    ladder[0],
                    free,
                    restrict_to=self._topology.nodes_in_rack(rack_id),
                )
                if placements is not None:
                    return placements
        if self.contention_aware:
            # Prefer a clean node — but only at the full core count: a
            # well-fed placement on a hot node still beats a starved one
            # on a clean node.
            friendly = self._contention_friendly_nodes(job, cores, cluster)
            placements = self._place_gpu_plain(
                job, ladder[0], free, restrict_to=friendly
            )
            if placements is not None:
                return placements
        # At each rung: an undisturbing placement first, then reclaim of
        # borrowed resources.  Training outranks (non-inference) CPU
        # borrowers, so a well-fed placement via reclaim beats running
        # starved at fewer cores.
        for attempt in ladder:
            placements = self._place_gpu_plain(job, attempt, free)
            if placements is not None:
                return placements
            placements = self._place_gpu_reclaim(
                job, attempt, cluster, free, decisions, preempted
            )
            if placements is not None:
                return placements
        return None

    def _contention_friendly_nodes(
        self, job: GpuJob, cores: int, cluster: Cluster
    ) -> Set[int]:
        """Nodes that can absorb this job's memory and PCIe footprint
        without crossing the bandwidth threshold or the PCIe fabric."""
        from repro.perfmodel.bandwidth import memory_bandwidth_demand
        from repro.perfmodel.catalog import get_model
        from repro.perfmodel.contention import BANDWIDTH_PRESSURE_THRESHOLD
        from repro.perfmodel.pcie import pcie_peak_demand

        profile = get_model(job.model_name)
        bw_demand = memory_bandwidth_demand(profile, job.setup, cores)
        pcie_demand = pcie_peak_demand(profile, job.setup)
        friendly: Set[int] = set()
        for node in cluster.nodes:
            bw_budget = (
                BANDWIDTH_PRESSURE_THRESHOLD * node.bandwidth.capacity_gbps
            )
            if node.bandwidth.total_granted + bw_demand > bw_budget:
                continue
            if node.pcie.total_demand + pcie_demand > node.config.pcie_gbps:
                continue
            friendly.add(node.node_id)
        return friendly

    @staticmethod
    def _core_ladder(job: GpuJob, cores: int) -> List[int]:
        """Slimming ladder: if the tuned/N_start core count does not fit
        anywhere, place the job slimmer rather than leave GPUs idle — the
        profiling loop grows it back once cores free up.  Floor: one core
        per local GPU."""
        floor = max(1, job.setup.gpus_per_node)
        ladder = [cores]
        step = cores
        while step > floor:
            step = max(floor, step // 2)
            ladder.append(step)
        return ladder

    def _place_gpu_plain(
        self,
        job: GpuJob,
        cores: int,
        free: FreeState,
        restrict_to: Optional[Set[int]] = None,
    ) -> Optional[List[Placement]]:
        """Placement without disturbing anyone: primary sub-array first,
        then the other one (a small job landing there becomes a borrower).

        ``restrict_to`` optionally intersects every candidate set (the
        contention-aware extension passes its friendly nodes here).
        """
        layout = self._layout
        assert layout is not None
        total_gpus = job.setup.total_gpus

        def narrowed(nodes: frozenset) -> Set[int]:
            if restrict_to is None:
                return set(nodes)
            return set(nodes) & restrict_to

        placements = place_gpu_job(
            job,
            free,
            cpus_per_node=cores,
            among=narrowed(layout.primary_nodes(total_gpus)),
        )
        if placements is not None:
            return placements
        placements = place_gpu_job(
            job,
            free,
            cpus_per_node=cores,
            among=narrowed(layout.fallback_nodes(total_gpus)),
        )
        if placements is not None:
            if total_gpus < FOUR_GPU_THRESHOLD:
                self._pending_borrow.add(job.job_id)
            return placements
        if job.setup.num_nodes > 1:
            # A multi-node gang may have to straddle both sub-arrays when
            # neither alone has enough suitable nodes.
            among = None if restrict_to is None else restrict_to
            placements = place_gpu_job(
                job, free, cpus_per_node=cores, among=among
            )
        return placements

    def _place_gpu_reclaim(
        self,
        job: GpuJob,
        cores: int,
        cluster: Cluster,
        free: FreeState,
        decisions: List[Decision],
        preempted: Set[str],
    ) -> Optional[List[Placement]]:
        """Placement by reclaiming borrowed resources: big jobs may migrate
        small GPU borrowers off their own sub-array; every GPU job may
        abort CPU borrowers sitting on reserved cores."""
        if not self._borrowed:
            # With zero reclaimable capacity every attempt below reduces
            # to plain feasibility over a subset of the nodes the plain
            # cascade just failed on (the multi-node straddle attempt was
            # tried over *all* nodes), so failure is guaranteed.
            return None
        layout = self._layout
        assert layout is not None
        total_gpus = job.setup.total_gpus
        primary = layout.primary_nodes(total_gpus)
        fallback = layout.fallback_nodes(total_gpus)
        small = total_gpus < FOUR_GPU_THRESHOLD
        attempts = [
            (primary, not small, False),
            (fallback, False, True),
        ]
        if job.setup.num_nodes > 1:
            # Multi-node gangs may need to straddle both sub-arrays.
            attempts.append((primary | fallback, False, False))
        for node_set, allow_gpu_reclaim, is_fallback in attempts:
            placements = self._place_with_reclaim(
                job,
                cores,
                cluster,
                free,
                node_set,
                allow_gpu_reclaim,
                decisions,
                preempted,
            )
            if placements is not None:
                if small and is_fallback:
                    self._pending_borrow.add(job.job_id)
                return placements
        return None

    def _place_with_reclaim(
        self,
        job: GpuJob,
        cores: int,
        cluster: Cluster,
        free: FreeState,
        node_set,
        allow_gpu_reclaim: bool,
        decisions: List[Decision],
        preempted: Set[str],
    ) -> Optional[List[Placement]]:
        gpus_needed = job.setup.gpus_per_node
        nodes_needed = job.setup.num_nodes
        candidates: List[Tuple[int, int, int, int, List[str], List[str]]] = []
        for node_id in node_set:
            free_cpus, free_gpus = free.free_of(node_id)
            cpu_borrowers, gpu_borrowers = self._borrowers_on(
                cluster, node_id, preempted, allow_gpu_reclaim
            )
            if cpu_borrowers or gpu_borrowers:
                reclaim_cpus = sum(c for _, c, _ in cpu_borrowers) + sum(
                    c for _, c, _ in gpu_borrowers
                )
                reclaim_gpus = sum(g for _, _, g in gpu_borrowers)
            else:  # the common case: nothing to reclaim on this node
                reclaim_cpus = reclaim_gpus = 0
            if (
                free_gpus + reclaim_gpus >= gpus_needed
                and free_cpus + reclaim_cpus >= cores
            ):
                candidates.append(
                    (
                        node_id,
                        free_cpus,
                        free_gpus,
                        reclaim_cpus + reclaim_gpus,  # prefer least disruption
                        [j for j, _, _ in cpu_borrowers],
                        [j for j, _, _ in gpu_borrowers],
                    )
                )
        if len(candidates) < nodes_needed:
            return None
        candidates.sort(
            key=lambda c: (free.placement_penalty(c[0]), c[3], c[2], c[1], c[0])
        )
        chosen = candidates[:nodes_needed]
        placements: List[Placement] = []
        for node_id, free_cpus, free_gpus, _, cpu_victims, gpu_victims in chosen:
            # Migrate small GPU borrowers first (they free both GPUs and
            # cores), then abort CPU borrowers for the remaining cores.
            for victim in gpu_victims:
                if free_gpus >= gpus_needed and free_cpus >= cores:
                    break
                share = cluster.node(node_id).share_of(victim)
                decisions.append(
                    PreemptDecision(
                        job_id=victim,
                        reason="4-GPU job reclaims sub-array node",
                        preserve_progress=True,
                    )
                )
                preempted.add(victim)
                free.add(node_id, share.cpus, share.gpus)
                free_cpus += share.cpus
                free_gpus += share.gpus
            for victim in cpu_victims:
                if free_cpus >= cores:
                    break
                share = cluster.node(node_id).share_of(victim)
                decisions.append(
                    PreemptDecision(
                        job_id=victim,
                        reason="GPU job reclaims reserved cores",
                        preserve_progress=False,
                    )
                )
                preempted.add(victim)
                free.add(node_id, share.cpus, 0)
                free_cpus += share.cpus
            if free_gpus < gpus_needed or free_cpus < cores:
                raise RuntimeError(
                    f"reclaim accounting failed on node {node_id} for "
                    f"{job.job_id}"
                )
            placements.append((node_id, cores, gpus_needed))
        return placements

    def _borrowers_on(
        self,
        cluster: Cluster,
        node_id: int,
        preempted: Set[str],
        with_gpu: bool,
    ) -> Tuple[List[Tuple[str, int, int]], List[Tuple[str, int, int]]]:
        """Live (job_id, cores, gpus) of the CPU and the GPU borrowers on a
        node, each list largest first; GPU borrowers only ``with_gpu``.

        Reads the per-node inverse index rather than scanning the whole
        borrow map; the ``(-cores, job_id)`` sort is a total order, so
        the index's iteration order cannot leak into the result.
        """
        cpu: List[Tuple[str, int, int]] = []
        gpu: List[Tuple[str, int, int]] = []
        borrowers = self._borrow_index.get(node_id)
        if not borrowers:
            return cpu, gpu
        node = cluster.node(node_id)
        for job_id, is_gpu in borrowers.items():
            if (is_gpu and not with_gpu) or job_id in preempted:
                continue
            if node.holds(job_id):
                share = node.share_of(job_id)
                (gpu if is_gpu else cpu).append((job_id, share.cpus, share.gpus))
        for found in (cpu, gpu):
            if len(found) > 1:
                found.sort(key=lambda item: (-item[1], item[0]))
        return cpu, gpu

    # -------------------------- CPU array ----------------------------- #

    def _schedule_cpu_array(
        self,
        cluster: Cluster,
        free: FreeState,
        decisions: List[Decision],
        preempted: Set[str],
    ) -> None:
        # Reclaims earlier in this pass returned capacity to ``free``
        # (see _schedule_gpu_array).
        scan_inference = bool(preempted) or self._gate.should_scan(
            "inference", cluster
        )
        scan_cpu = bool(preempted) or self._gate.should_scan("cpu", cluster)
        if not scan_inference and not scan_cpu:
            return
        if not self._depths[1]:
            # Nothing queued in either CPU class: both tenant loops below
            # would spin zero iterations, so skip the headroom census too.
            return

        # User-facing inference first: it outranks training, so it may use
        # any free cores (reserved or not) and is never a borrower.
        inference = self._inference
        if scan_inference:
            for tenant_id in inference.drf_order(cluster.total):
                job = inference.head(tenant_id)
                placement = place_cpu_job(job, free)
                if placement is None:
                    inference.block(tenant_id)
                    continue
                free.commit(placement)
                inference.take(tenant_id)
                self._cpu_ledger.start(job.job_id, job.tenant_id, job.cores, 0)
                self._rekey(self._cpu_families, job.tenant_id)
                decisions.append(
                    StartDecision(job=job, placements=tuple(placement))
                )

        if not scan_cpu:
            return
        # Normal CPU-array headroom per node: unreserved cores minus what
        # non-borrowing CPU jobs already hold there.  The census walks the
        # tracked-job map rather than every resident of every node; core
        # counts are read live from the node, so the eliminator's
        # core-halvings free capacity immediately.
        normal_used = self._cpu_census(cluster, preempted)

        gpu_idle = self.gpu_queue_empty()
        cpu = self._cpu
        for tenant_id in cpu.drf_order(cluster.total):
            job = cpu.head(tenant_id)
            placement = self._place_cpu_normal(job, free, normal_used)
            borrowed = False
            if placement is None and gpu_idle:
                placement = place_cpu_job(job, free)
                borrowed = placement is not None
            if placement is None:
                cpu.block(tenant_id)
                continue
            free.commit(placement)
            node_id = placement[0][0]
            if borrowed:
                self._pending_borrow.add(job.job_id)
            else:
                normal_used[node_id] = normal_used.get(node_id, 0) + job.cores
            cpu.take(tenant_id)
            self._cpu_ledger.start(job.job_id, job.tenant_id, job.cores, 0)
            self._rekey(self._cpu_families, job.tenant_id)
            decisions.append(StartDecision(job=job, placements=tuple(placement)))

    def _cpu_census_build(
        self, cluster: Cluster, preempted: Set[str]
    ) -> Dict[int, int]:
        normal_used: Dict[int, int] = {}  # sparse: absent node == 0 used
        for job_id, (node_id, _) in self._tracked.items():
            if job_id in preempted:
                continue
            node = cluster.node(node_id)
            if node.holds(job_id):
                normal_used[node_id] = (
                    normal_used.get(node_id, 0) + node.share_of(job_id).cpus
                )
        return normal_used

    def _cpu_census(
        self, cluster: Cluster, preempted: Set[str]
    ) -> Dict[int, int]:
        """Per-node cores held by tracked (non-borrowing) CPU jobs.

        Served from the incrementally maintained ``_cpu_used`` map:
        membership adds ride ``job_started``, removals ride ``_forget``,
        and core counts move through :meth:`cpu_job_resized` — every
        mutation a walk over the cluster would see reaches one of those
        hooks, so the map equals a fresh walk entry-for-entry (IV010).
        The walk would skip ``preempted`` jobs, but those are borrowers,
        and no borrower is tracked (IV015), so the map needs no
        correction for them.
        """
        if not self._gate.enabled:
            return self._cpu_census_build(cluster, preempted)
        # Callers mutate their census as they commit placements; hand out
        # a copy so the maintained map stays pristine.
        return dict(self._cpu_used)

    def _place_cpu_normal(
        self,
        job: CpuJob,
        free: FreeState,
        normal_used: Dict[int, int],
    ) -> Optional[List[Placement]]:
        """Best-fit within the CPU array's unreserved per-node capacity.

        The hot loop of a CPU-heavy pass: it reads the snapshot's free
        map and de-prioritized set directly rather than through
        ``free_of``/``placement_penalty`` once per node.  The key is the
        same ``(penalty, headroom, node_id)``.
        """
        cores = job.cores
        free_cpus = free._free
        flagged = free._deprioritized
        best: Optional[Tuple[int, int, int]] = None  # (penalty, headroom, node_id)
        for node_id, capacity in self._cpu_capacity:
            headroom = capacity - normal_used.get(node_id, 0)
            if headroom < cores or free_cpus[node_id][0] < cores:
                continue
            key = (1 if node_id in flagged else 0, headroom, node_id)
            if best is None or key < best:
                best = key
        if best is None:
            return None
        return [(best[2], cores, 0)]

    # ---------------------- checkpoint / restore ----------------------- #
    # The lazily-built layout fields are pure functions of the cluster
    # config and rebuild on the first pass, so they are not declared.

    STATE = Scheduler.STATE.plus((
        "queues", None, Struct(
            ("gpu_small", "_gpu_small", NESTED),
            ("gpu_big", "_gpu_big", NESTED),
            ("cpu", "_cpu", NESTED),
            ("inference", "_inference", NESTED),
            ("gpu_ledger", "_gpu_ledger", NESTED),
            ("cpu_ledger", "_cpu_ledger", NESTED),
            ("tracked", "_tracked", DictOf(JOB_ID, Row(NODE_ID, INT, into=list))),
            ("borrowed", "_borrowed", DictOf(JOB_ID, NODE_ID)),
            ("pending_borrow", "_pending_borrow", ListOf(JOB_ID, set, sort=True)),
        ),
    ))

    def _after_load(self, refs: Refs) -> None:
        # Rebuild the census and borrow index; re-arm every gate group, as
        # loaded state may differ from the last pass this process saw.
        self._cpu_used = {}
        for node_id, cores in self._tracked.values():
            self._cpu_used[node_id] = self._cpu_used.get(node_id, 0) + cores
        self._borrow_index = {}
        jobs = refs.jobs
        assert jobs is not None  # the queues' jobs loaded from it too
        for job_id, node_id in self._borrowed.items():
            is_gpu = isinstance(jobs[job_id], GpuJob)
            self._borrow_index.setdefault(node_id, {})[job_id] = is_gpu
        self._gate.mark_all()
        self._gpu_idle_prev = self.gpu_queue_empty()
        self._place_memo = {}
