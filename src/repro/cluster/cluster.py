"""The cluster: a collection of nodes plus allocation bookkeeping.

The cluster is deliberately policy-free.  It can tell a scheduler what fits
where and execute an allocation atomically across nodes, but *which* node to
pick and *when* belongs to :mod:`repro.schedulers` and :mod:`repro.core`.
"""

from __future__ import annotations

import logging
import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.cluster.allocation import Allocation, NodeShare
from repro.cluster.interconnect import Interconnect
from repro.cluster.node import GenerationCounter, Node, UsageTotals
from repro.cluster.topology import RackedInterconnect, RackTopology
from repro.cluster.resources import ResourceVector
from repro.config import ClusterConfig
from repro.health.tracker import NodeHealthTracker
from repro.sim.state import INT, JOB_ID, NESTED, NODE_ID, DictOf, ListOf, Record, Refs
from repro.sim.state import Stateful, Struct

logger = logging.getLogger(__name__)


_SHARE = Record(NodeShare, node_id=NODE_ID, cpus=INT, gpu_ids=ListOf(INT, tuple))
_ALLOCATION = Record(Allocation, ("job_id", JOB_ID), bare=True, shares=ListOf(_SHARE))


class Cluster(Stateful):
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
        #: Cores and GPUs in use on all nodes, moved by every node mutation.
        self._usage = UsageTotals()
        for node in self.nodes:
            node.generation = self._generation
            node.usage = self._usage
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
        """Cores and GPUs in use, from the maintained totals (IV002 holds
        them to a fresh walk of the nodes)."""
        return ResourceVector(cpus=self._usage.cpus, gpus=self._usage.gpus)

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
        return self._usage.gpus

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
        return self._usage.cpus / total

    def mean_gpu_utilization(self, *, active_only: bool = True) -> float:
        """Average GPU utilization, across active GPUs by default.

        The paper computes utilization "as the average across all active"
        devices (Sec. III-A1); passing ``active_only=False`` averages over
        every GPU, idle ones counting as zero.
        """
        active, overall = self.gpu_utilization_means()
        return active if active_only else overall

    def gpu_utilization_means(self) -> Tuple[float, float]:
        """``(active-only mean, overall mean)`` from one cluster walk.

        Idle GPUs add only 0.0 terms to the overall sum, and ``fsum`` is
        exactly rounded (the same bytes on every Python), so the overall
        mean is the active sum over every GPU.  Failed GPUs read 0.0.
        """
        utils: List[float] = []
        gpus = 0
        for node in self.nodes:
            gpus += len(node.gpus)
            if node.used_gpus == 0:
                continue  # no owned GPUs: nothing would be appended
            for gpu in node.gpus:
                if not gpu.is_free:
                    utils.append(gpu.utilization)
        if not utils:
            return 0.0, 0.0
        total = math.fsum(utils)
        return total / len(utils), total / gpus

    # ------------------------------------------------------------------ #
    # Checkpoint / restore

    STATE = Struct(
        ("nodes", NESTED),
        ("allocations", "_allocations", DictOf(JOB_ID, _ALLOCATION)),
        ("health", NESTED),
        ("generation", "_generation.value", INT),
    )

    def _after_load(self, refs: Refs) -> None:
        # Every capacity write bumps (the nodes' loads did): bump for the
        # allocations, then pin the loaded value for version-keyed memos.
        generation = self._generation
        value = generation.value
        generation.bump()
        generation.value = value
        self.free_snapshot_cache = None

    def __repr__(self) -> str:
        return (
            f"Cluster(nodes={len(self.nodes)}, used={self.used}, "
            f"total={self.total})"
        )
