"""The cluster: a collection of nodes plus allocation bookkeeping.

The cluster is deliberately policy-free.  It can tell a scheduler what fits
where and execute an allocation atomically across nodes, but *which* node to
pick and *when* belongs to :mod:`repro.schedulers` and :mod:`repro.core`.
"""

from __future__ import annotations

import logging
import math
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.cluster.allocation import Allocation, NodeShare
from repro.cluster.interconnect import Interconnect
from repro.cluster.node import GenerationCounter, Node
from repro.cluster.topology import RackedInterconnect, RackTopology
from repro.cluster.resources import ResourceVector
from repro.config import ClusterConfig
from repro.health.tracker import NodeHealthTracker

logger = logging.getLogger(__name__)


class Cluster:
    """All nodes of the simulated GPU cluster."""

    def __init__(self, config: Optional[ClusterConfig] = None) -> None:
        self.config = config or ClusterConfig()
        self.nodes: List[Node] = [
            Node(node_id=i, config=node_config)
            for i, node_config in enumerate(self.config.expand())
        ]
        self.interconnect = Interconnect(link_gbps=self.config.interconnect_gbps)
        if self.config.nodes_per_rack is None:
            self.topology = RackTopology.flat(len(self.nodes))
        else:
            self.topology = RackTopology.uniform(
                len(self.nodes), self.config.nodes_per_rack
            )
        self.fabric = RackedInterconnect(
            topology=self.topology,
            intra_rack=self.interconnect,
            oversubscription=self.config.rack_oversubscription,
        )
        self._allocations: Dict[str, Allocation] = {}
        #: Per-node health states (see :mod:`repro.health`); the default
        #: tracker never sees a strike, so every node reads HEALTHY.  The
        #: runner swaps in a configured tracker when health is tuned.
        self.health = NodeHealthTracker()
        #: One mutation counter shared by every node, so a single integer
        #: answers "has any free capacity changed since I last looked".
        self._generation = GenerationCounter()
        for node in self.nodes:
            node.generation = self._generation
        #: Single-entry free-capacity snapshot memo, managed by
        #: :mod:`repro.schedulers.placement` and invalidated through
        #: :attr:`version` (plus the health tracker's quarantined and
        #: de-prioritized node sets).
        self.free_snapshot_cache: Any = None
        # Total capacity never changes after construction (a failed GPU
        # still counts toward the total), so compute it once.
        self._total = ResourceVector(
            cpus=sum(node.total_cpus for node in self.nodes),
            gpus=sum(node.total_gpus for node in self.nodes),
        )

    # ------------------------------------------------------------------ #
    # Capacity and usage

    @property
    def version(self) -> int:
        """Monotone counter bumped by every capacity-affecting mutation."""
        return self._generation.value

    @property
    def capacity_freed(self) -> int:
        """Monotone counter bumped only by capacity-*increasing* mutations
        (release, resize-down, mark_up, repair, quarantine exit).  The
        schedulers' pass gates compare it between passes: while it holds
        still and no queue changed, every previously blocked job is still
        blocked (consumption cannot unblock anyone)."""
        return self._generation.freed

    def note_capacity_freed(self, node_id: int) -> None:
        """Record a capacity increase that no node mutator saw — the one
        case today is quarantine expiry, where a node's capacity returns
        by a deadline passing rather than by any write."""
        self._generation.bump_node(node_id, freed=True)

    def dirty_capacity(self) -> Tuple[bool, set]:
        """``(coarse, touched)``: which nodes changed since the snapshot
        cache last caught up.  ``coarse`` means an unattributed mutation
        happened and only a full rebuild is safe."""
        return self._generation.coarse, self._generation.touched

    def clear_dirty_capacity(self) -> None:
        """The snapshot cache has caught up with every recorded change."""
        self._generation.coarse = False
        self._generation.touched.clear()

    @property
    def total(self) -> ResourceVector:
        return self._total

    @property
    def used(self) -> ResourceVector:
        return ResourceVector(
            cpus=sum(node.used_cpus for node in self.nodes),
            gpus=sum(node.used_gpus for node in self.nodes),
        )

    @property
    def free(self) -> ResourceVector:
        return self.total - self.used

    def node(self, node_id: int) -> Node:
        return self.nodes[node_id]

    def allocation_of(self, job_id: str) -> Allocation:
        return self._allocations[job_id]

    def has_allocation(self, job_id: str) -> bool:
        return job_id in self._allocations

    def allocations(self) -> Dict[str, Allocation]:
        return dict(self._allocations)

    # ------------------------------------------------------------------ #
    # Allocation

    def allocate(
        self, job_id: str, placements: Sequence[Tuple[int, int, int]]
    ) -> Allocation:
        """Atomically allocate ``[(node_id, cpus, gpus), ...]`` to a job.

        Either every share is granted or none is: a partial multi-node grant
        would deadlock the cluster, so on any failure the already-granted
        shares are rolled back before re-raising.
        """
        if job_id in self._allocations:
            raise RuntimeError(f"job {job_id} already has an allocation")
        if not placements:
            raise ValueError(f"empty placement list for job {job_id}")
        granted: List[NodeShare] = []
        try:
            for node_id, cpus, gpus in placements:
                granted.append(self.nodes[node_id].allocate(job_id, cpus, gpus))
        except (RuntimeError, ValueError, IndexError) as error:
            # Node.allocate's capacity guards (RuntimeError), request
            # validation (ValueError), and a bad node id (IndexError) are
            # the only failures a placement can raise; anything else is a
            # bug and must propagate untouched, not be absorbed into the
            # rollback path.
            logger.warning(
                "rolling back partial allocation of %s after %d/%d shares: %s",
                job_id,
                len(granted),
                len(placements),
                error,
            )
            for share in granted:
                self.nodes[share.node_id].release(job_id)
            raise
        allocation = Allocation(job_id=job_id, shares=granted)
        self._allocations[job_id] = allocation
        return allocation

    def release(self, job_id: str) -> Allocation:
        """Release everything the job holds, across all of its nodes."""
        allocation = self._allocations.pop(job_id, None)
        if allocation is None:
            raise RuntimeError(f"job {job_id} has no allocation to release")
        for share in allocation.shares:
            self.nodes[share.node_id].release(job_id)
        return allocation

    def resize_cpus(self, job_id: str, cpus_by_node: Dict[int, int]) -> Allocation:
        """Retune a running job's cores on the given nodes."""
        allocation = self._allocations.get(job_id)
        if allocation is None:
            raise RuntimeError(f"job {job_id} has no allocation to resize")
        for node_id, new_cpus in cpus_by_node.items():
            new_share = self.nodes[node_id].resize_cpus(job_id, new_cpus)
            allocation.replace_share(new_share)
        return allocation

    # ------------------------------------------------------------------ #
    # Cluster-wide readings (for metrics)

    def gpu_active_count(self) -> int:
        """Number of GPUs currently owned by a job."""
        return sum(node.used_gpus for node in self.nodes)

    def gpu_active_rate(self) -> float:
        """Fraction of all GPUs owned by a job (the paper's 'active rate')."""
        total = self.total.gpus
        if total == 0:
            return 0.0
        return self.gpu_active_count() / total

    def cpu_active_rate(self) -> float:
        total = self.total.cpus
        if total == 0:
            return 0.0
        return self.used.cpus / total

    def mean_gpu_utilization(self, *, active_only: bool = True) -> float:
        """Average GPU utilization, across active GPUs by default.

        The paper computes utilization "as the average across all active"
        devices (Sec. III-A1); passing ``active_only=False`` averages over
        every GPU, idle ones counting as zero.
        """
        utils: List[float] = []
        for node in self.nodes:
            if active_only and node.used_gpus == 0:
                continue  # no owned GPUs: nothing would be appended
            for gpu in node.gpus:
                if gpu.is_free:
                    if not active_only:
                        utils.append(0.0)
                else:
                    utils.append(gpu.utilization)
        if not utils:
            return 0.0
        # fsum is exactly rounded, so the mean is the same bytes on every
        # Python (3.12's sum() compensates, older ones do not).
        return math.fsum(utils) / len(utils)

    def nodes_with_free(
        self, cpus: int, gpus: int, *, among: Optional[Iterable[int]] = None
    ) -> List[Node]:
        """Nodes that could host a (cpus, gpus) share right now."""
        candidates = (
            self.nodes if among is None else [self.nodes[i] for i in among]
        )
        return [node for node in candidates if node.can_fit(cpus, gpus)]

    # ------------------------------------------------------------------ #
    # Checkpoint / restore

    def snapshot(self) -> Dict[str, Any]:
        """Serializable cluster state: nodes, allocations, health, version."""
        return {
            "generation": self._generation.value,
            "nodes": [node.snapshot() for node in self.nodes],
            "allocations": {
                job_id: [
                    [share.node_id, share.cpus, list(share.gpu_ids)]
                    for share in allocation.shares
                ]
                for job_id, allocation in self._allocations.items()
            },
            "health": self.health.snapshot(),
        }

    def restore(self, state: Dict[str, Any]) -> None:
        """Rewind to a snapshot taken on an identically-configured cluster.

        The node restores bump the shared generation counter (every
        capacity write must, per the invalidation contracts); the counter
        is then pinned back to its snapshotted value so version-keyed
        memo keys evolve identically to the uninterrupted run.
        """
        if len(state["nodes"]) != len(self.nodes):
            raise ValueError(
                f"snapshot has {len(state['nodes'])} node(s), cluster has "
                f"{len(self.nodes)}"
            )
        for node, node_state in zip(self.nodes, state["nodes"]):
            node.restore(node_state)
        self._allocations = {
            job_id: Allocation(
                job_id=job_id,
                shares=[
                    NodeShare(
                        node_id=int(node_id),
                        cpus=int(cpus),
                        gpu_ids=tuple(int(gpu_id) for gpu_id in gpu_ids),
                    )
                    for node_id, cpus, gpu_ids in shares
                ],
            )
            for job_id, shares in state["allocations"].items()
        }
        self._generation.bump()
        self.health.restore(state["health"])
        self._generation.value = int(state["generation"])
        self.free_snapshot_cache = None

    def __repr__(self) -> str:
        return (
            f"Cluster(nodes={len(self.nodes)}, used={self.used}, "
            f"total={self.total})"
        )
