"""Placement helpers shared by every policy.

:class:`FreeState` is a cheap mutable snapshot of per-node free resources a
scheduler decrements as it makes decisions within one pass, so a batch of
decisions is internally consistent without touching the real cluster.

Placement heuristics are best-fit: pack GPU jobs onto the nodes whose free
GPU count (then free core count) is tightest, and CPU jobs onto the nodes
with the tightest free cores.  Best-fit keeps large-GPU nodes whole, which
matters for the paper's 4-GPU jobs.

Node health (see :mod:`repro.health`) folds in at snapshot time: passing
``now`` to :meth:`FreeState.of` reads the cluster's health tracker, zeroes
out QUARANTINED nodes (they take no placements, same as a downed node),
and de-prioritizes SUSPECT/PROBATION nodes — every best-fit sort tries all
clean nodes before touching a flagged one.  Without ``now`` (or with no
strikes on record) the snapshot and orderings are byte-identical to the
health-unaware ones.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.cluster.cluster import Cluster
from repro.workload.job import CpuJob, GpuJob

Placement = Tuple[int, int, int]  # (node_id, cpus, gpus)


class FreeState:
    """Per-node free (cpus, gpus) snapshot with commit semantics.

    Stored as a plain ``node_id -> (cpus, gpus)`` dict: constructing a
    snapshot from the shared cache is then one C-level ``dict`` copy
    instead of one object per node — the construction cost is what every
    scheduling pass pays even on a perfect cache hit."""

    #: Cumulative count of full snapshot rebuilds performed by
    #: :meth:`of` (cache misses).  Exists for the memoization regression
    #: test: with no intervening cluster/health mutation, repeated calls
    #: must not rebuild.
    rebuilds: int = 0
    #: Cumulative count of *partial* refreshes: cache hits that only
    #: re-read the nodes the cluster reported dirty (see
    #: :meth:`repro.cluster.cluster.Cluster.dirty_capacity`) instead of
    #: scanning all of them.
    refreshes: int = 0

    def __init__(
        self,
        free: Dict[int, Tuple[int, int]],
        *,
        deprioritized: Optional[Iterable[int]] = None,
    ) -> None:
        self._free: Dict[int, Tuple[int, int]] = dict(free)
        self._deprioritized: Set[int] = set(deprioritized or ())
        #: Lazily-built candidate orderings (see ``_gpu_sorted`` /
        #: ``_cpu_sorted``); invalidated whenever the snapshot mutates.
        self._gpu_order: Optional[List[int]] = None
        self._cpu_order: Optional[List[int]] = None
        #: In-pass mutation stamp, bumped by :meth:`add` and
        #: :meth:`commit`.  Placement-shape memos (see
        #: ``MultiArrayScheduler._place_memo``) record the stamp at
        #: failure time: an identical request re-tried at the same stamp
        #: is guaranteed to fail again.
        self.mutations = 0

    @classmethod
    def of(
        cls,
        cluster: Cluster,
        *,
        among: Optional[Iterable[int]] = None,
        now: Optional[float] = None,
        reference: bool = False,
    ) -> "FreeState":
        """Snapshot free capacity; with ``now``, health-filtered.

        QUARANTINED nodes stay in the snapshot (so ``free_of`` keeps
        working for reclaim bookkeeping) but report zero free capacity —
        a policy that still places there trips :meth:`commit`'s guard,
        which is a bug worth crashing on.

        The whole-cluster snapshot (``among=None``) is memoized on
        ``cluster.free_snapshot_cache`` as ``(version, health, qset,
        free)`` where qset is the quarantined node set at ``now``.
        Incremental maintenance:

        * cache empty, foreign health tracker, or a *coarse* (unattributed)
          mutation → full rebuild, one read per node;
        * cluster version or quarantine set moved → partial refresh
          re-reading only ``touched | (qset ^ cached_qset)`` nodes (free
          capacity is time-independent; quarantine zeroing is derived
          from qset, so every other entry is still exact);
        * otherwise → pure hit.

        The de-prioritized set only orders candidates and never changes
        a free entry, so it is not cached: every returned snapshot takes
        the current one.

        ``reference=True`` bypasses the memo entirely — every call is an
        uncached scan, the reference behaviour the parity test compares
        against.  Policies pass ``not PassGate.enabled``, which samples
        ``REPRO_REFERENCE`` once, when the gate is built.
        """
        if among is not None or reference:
            return cls._build(
                cluster,
                range(len(cluster.nodes)) if among is None else among,
                now,
            )
        health = cluster.health
        qset: frozenset = frozenset()
        dset: Iterable[int] = ()
        if now is not None:
            qset = frozenset(health.quarantined_nodes(now))
            dset = health.deprioritized_nodes(now)
        version = cluster.version
        cached = cluster.free_snapshot_cache
        coarse, touched = cluster.dirty_capacity()
        if cached is None or cached[1] is not health or coarse:
            state = cls._build(cluster, range(len(cluster.nodes)), now)
            cluster.free_snapshot_cache = (
                version, health, qset, dict(state._free),
            )
            cluster.clear_dirty_capacity()
            return state
        _, _, c_qset, free = cached
        if version != cached[0] or qset != c_qset:
            cls.refreshes += 1
            nodes = cluster.nodes
            for node_id in sorted(touched | (qset ^ c_qset)):
                free[node_id] = (
                    (0, 0)
                    if node_id in qset
                    else (nodes[node_id].free_cpus, nodes[node_id].free_gpus)
                )
            cluster.free_snapshot_cache = (version, health, qset, free)
            cluster.clear_dirty_capacity()
        return cls(free, deprioritized=dset)

    @classmethod
    def _build(
        cls,
        cluster: Cluster,
        node_ids: Iterable[int],
        now: Optional[float],
    ) -> "FreeState":
        """Uncached snapshot construction (one read per node)."""
        cls.rebuilds += 1
        quarantined: Set[int] = set()
        deprioritized: Set[int] = set()
        if now is not None:
            health = cluster.health
            quarantined = set(health.quarantined_nodes(now))
            deprioritized = set(health.deprioritized_nodes(now))
        return cls(
            {
                node_id: (
                    (0, 0)
                    if node_id in quarantined
                    else (
                        cluster.nodes[node_id].free_cpus,
                        cluster.nodes[node_id].free_gpus,
                    )
                )
                for node_id in node_ids
            },
            deprioritized=deprioritized,
        )

    def placement_penalty(self, node_id: int) -> int:
        """1 for nodes placement should avoid (SUSPECT/PROBATION), else 0;
        prefixed to every best-fit sort key."""
        return 1 if node_id in self._deprioritized else 0

    def free_of(self, node_id: int) -> Tuple[int, int]:
        return self._free[node_id]

    def node_ids(self) -> List[int]:
        return list(self._free)

    def add(self, node_id: int, cpus: int, gpus: int) -> None:
        """Return capacity to the snapshot (e.g., a planned preemption)."""
        free_cpus, free_gpus = self._free[node_id]
        self._free[node_id] = (free_cpus + cpus, free_gpus + gpus)
        self._gpu_order = None
        self._cpu_order = None
        self.mutations += 1

    def commit(self, placements: Iterable[Placement]) -> None:
        """Deduct a decision from the snapshot.

        Raises:
            RuntimeError: if the deduction would go negative — the caller
                placed against stale data, which is a policy bug.
        """
        for node_id, cpus, gpus in placements:
            free_cpus, free_gpus = self._free[node_id]
            if cpus > free_cpus or gpus > free_gpus:
                raise RuntimeError(
                    f"placement overcommits node {node_id}: "
                    f"want {cpus}c/{gpus}g, free {free_cpus}c/{free_gpus}g"
                )
            self._free[node_id] = (free_cpus - cpus, free_gpus - gpus)
        self._gpu_order = None
        self._cpu_order = None
        self.mutations += 1

    def _gpu_sorted(self) -> List[int]:
        """All node ids in GPU best-fit order, cached between mutations.

        The sort key ``(penalty, gpus, cpus, node_id)`` is a total order
        (node_id is unique), so selecting the first qualifying nodes from
        this list is byte-identical to sorting the qualifying subset —
        which lets repeated placement attempts (the slimming ladder tries
        several core counts between commits) reuse one sort.
        """
        if self._gpu_order is None:
            deprioritized = self._deprioritized
            free = self._free
            self._gpu_order = sorted(
                free,
                key=lambda node_id: (
                    1 if node_id in deprioritized else 0,
                    free[node_id][1],
                    free[node_id][0],
                    node_id,
                ),
            )
        return self._gpu_order

    def _cpu_sorted(self) -> List[int]:
        """All node ids in CPU best-fit order ``(penalty, cpus,
        node_id)``, cached between mutations (see :meth:`_gpu_sorted`)."""
        if self._cpu_order is None:
            deprioritized = self._deprioritized
            free = self._free
            self._cpu_order = sorted(
                free,
                key=lambda node_id: (
                    1 if node_id in deprioritized else 0,
                    free[node_id][0],
                    node_id,
                ),
            )
        return self._cpu_order


def place_gpu_job(
    job: GpuJob,
    free: FreeState,
    *,
    cpus_per_node: Optional[int] = None,
    among: Optional[Iterable[int]] = None,
) -> Optional[List[Placement]]:
    """Find nodes for a training job; None when it does not fit now.

    Needs ``job.setup.num_nodes`` distinct nodes, each with
    ``gpus_per_node`` free GPUs and the per-node core allocation
    (``cpus_per_node`` overrides the owner's request — CODA passes its
    N_start here).  Best-fit on free GPUs, then free cores, then node id
    for determinism.
    """
    cores = cpus_per_node if cpus_per_node is not None else job.requested_cpus
    gpus = job.setup.gpus_per_node
    needed = job.setup.num_nodes
    allowed = (
        None
        if among is None
        else (among if isinstance(among, (set, frozenset)) else set(among))
    )
    chosen: List[int] = []
    capacity = free._free
    for node_id in free._gpu_sorted():
        free_cpus, free_gpus = capacity[node_id]
        if (
            free_gpus >= gpus
            and free_cpus >= cores
            and (allowed is None or node_id in allowed)
        ):
            chosen.append(node_id)
            if len(chosen) == needed:
                return [(node_id, cores, gpus) for node_id in chosen]
    return None


def place_cpu_job(
    job: CpuJob,
    free: FreeState,
    *,
    among: Optional[Iterable[int]] = None,
) -> Optional[List[Placement]]:
    """Find a node for a CPU job; None when it does not fit now.

    Best-fit on free cores, preferring GPU-free capacity is deliberately
    *not* done here: the baselines happily stuff CPU jobs onto GPU nodes,
    which is exactly the interference CODA's multi-array design removes.
    """
    allowed = (
        None
        if among is None
        else (among if isinstance(among, (set, frozenset)) else set(among))
    )
    capacity = free._free
    for node_id in free._cpu_sorted():
        if capacity[node_id][0] >= job.cores and (
            allowed is None or node_id in allowed
        ):
            return [(node_id, job.cores, 0)]
    return None
