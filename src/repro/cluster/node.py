"""One server of the cluster.

A node owns its CPU cores, its GPUs, and the shared memory-system resources
(bandwidth monitor + MBA throttle, PCIe meter, LLC occupancy).  All resource
state transitions are guarded: over-allocation, double release, or resizing
a job that is not present raise immediately rather than corrupting the
bookkeeping on which every experiment result depends.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.cluster.allocation import NodeShare
from repro.cluster.gpu import Gpu
from repro.cluster.mba import MbaController
from repro.cluster.mbm import BandwidthMonitor
from repro.config import NodeConfig
from repro.sim.state import BOOL, FLOAT, INT, JOB_ID, NESTED, DictOf, ListOf, Record
from repro.sim.state import Refs, Stateful, Struct


class GenerationCounter:
    """A shared mutation counter for cheap snapshot invalidation.

    Every capacity-affecting node mutation bumps it; consumers (the
    placement layer's memoized :class:`~repro.schedulers.placement.FreeState`)
    compare the value instead of re-reading every node.  The cluster hands
    one shared counter to all of its nodes, so a single integer captures
    "has any free capacity changed anywhere".

    Beyond the plain counter, the dirty-set scheduling core needs two more
    readings (see docs/scheduler-internals.md):

    * ``touched`` — which nodes changed since the last whole-cluster
      snapshot refresh, so :class:`~repro.schedulers.placement.FreeState`
      re-reads only those instead of every node;
    * ``freed`` — a monotone counter bumped only by capacity-*increasing*
      mutations (release, resize-down, mark_up, repair).  Pass skipping
      keys on it: a queue of blocked jobs can only become placeable again
      when capacity was freed, never when it was consumed.

    :meth:`bump` (the attribution-free legacy hook) stays safe by being
    conservative: it counts as freed *and* sets ``coarse``, which forces
    the next snapshot to rebuild from scratch — a caller that cannot say
    what changed must not benefit from partial refresh.
    """

    __slots__ = ("value", "freed", "touched", "coarse")

    def __init__(self) -> None:
        self.value = 0
        self.freed = 0
        self.touched: set = set()
        self.coarse = False

    def bump(self) -> None:
        """Unattributed mutation: conservatively treat it as freed
        capacity on an unknown node (forces a full snapshot rebuild)."""
        self.value += 1
        self.freed += 1
        self.coarse = True

    def bump_node(self, node_id: int, *, freed: bool) -> None:
        """Attributed mutation: ``node_id`` changed; ``freed`` says in
        which direction (True when free capacity increased)."""
        self.value += 1
        self.touched.add(node_id)
        if freed:
            self.freed += 1


class UsageTotals:
    """Cores and GPUs in use summed over every node that shares it.

    The cluster hands one to all of its nodes (as it does the
    :class:`GenerationCounter`), and each node moves it with its own
    counters on every allocate, release, resize and restore, so
    cluster-wide usage reads in O(1) instead of walking every node.
    """

    __slots__ = ("cpus", "gpus")

    def __init__(self) -> None:
        self.cpus = 0
        self.gpus = 0


@dataclass
class PcieMeter:
    """Host PCIe fabric accounting (all values in GB/s).

    PCIe is not schedulable; the meter only answers "by how much is H2D
    traffic stretched".  Demands beyond capacity degrade everyone
    proportionally (fair-share ratio), which is what the co-location
    measurements of Sec. IV-C3 show: two light jobs coexist freely, and a
    heavy CV model inflicts a uniform 5-10 % penalty.
    """

    capacity_gbps: float
    demands: Dict[str, float] = field(default_factory=dict)

    def register(self, job_id: str, demand_gbps: float) -> None:
        if demand_gbps < 0:
            raise ValueError(f"negative PCIe demand for {job_id}")
        self.demands[job_id] = float(demand_gbps)

    def unregister(self, job_id: str) -> None:
        self.demands.pop(job_id, None)

    @property
    def total_demand(self) -> float:
        return sum(self.demands.values())

    def grant_ratio(self) -> float:
        """Fraction of demanded PCIe throughput actually achieved (<=1)."""
        total = self.total_demand
        if total <= self.capacity_gbps:
            return 1.0
        return self.capacity_gbps / total


#: A share on its own node, which supplies the node id.
_SHARE = Record(NodeShare, from_owner="node_id", cpus=INT, gpu_ids=ListOf(INT, tuple))


class Node(Stateful):
    """A single multi-GPU server."""

    def __init__(self, node_id: int, config: NodeConfig) -> None:
        self.node_id = node_id
        self.config = config
        self.gpus: List[Gpu] = [Gpu(gpu_id=i) for i in range(config.gpus)]
        self.bandwidth = BandwidthMonitor(config.mem_bandwidth_gbps)
        self.mba = MbaController(
            monitor=self.bandwidth, supported=config.mba_supported
        )
        self.pcie = PcieMeter(capacity_gbps=config.pcie_gbps)
        self.llc_occupancy_mb: Dict[str, float] = {}
        self._shares: Dict[str, NodeShare] = {}
        self._used_cpus = 0
        # Owned-GPU count maintained like _used_cpus (exact integer
        # arithmetic, so it can never drift from the per-device truth the
        # invariant auditor re-derives); reading it is O(1) where the old
        # property summed over every device.
        self._used_gpus = 0
        #: Failed GPUs, kept beside ``_used_gpus`` so ``free_gpus`` is
        #: O(1) (an owned GPU is never failed: the owner is evicted first).
        self._failed_gpus = 0
        self._up = True
        #: Bumped on every capacity mutation; the cluster replaces it with
        #: one counter shared across all of its nodes.
        self.generation = GenerationCounter()
        #: Moved with ``_used_cpus``/``_used_gpus``; the cluster replaces
        #: it with one total shared across all of its nodes.
        self.usage = UsageTotals()

    # ------------------------------------------------------------------ #
    # Availability (fault injection)

    @property
    def is_up(self) -> bool:
        return self._up

    def mark_down(self) -> None:
        """Take the whole node out of service (simulated crash).

        Raises:
            RuntimeError: if jobs still hold shares here — the runner must
                fail/evict them first so every displaced job goes through
                exactly one restart path.
        """
        if self._shares:
            raise RuntimeError(
                f"node {self.node_id} still hosts {sorted(self._shares)}; "
                "evict residents before marking it down"
            )
        self._up = False
        self.generation.bump_node(self.node_id, freed=False)

    def mark_up(self) -> None:
        """Return a crashed node to service. Idempotent."""
        self._up = True
        self.generation.bump_node(self.node_id, freed=True)

    # ------------------------------------------------------------------ #
    # Capacity queries

    @property
    def total_cpus(self) -> int:
        return self.config.cores

    @property
    def total_gpus(self) -> int:
        return len(self.gpus)

    @property
    def used_cpus(self) -> int:
        return self._used_cpus

    @property
    def free_cpus(self) -> int:
        if not self._up:
            return 0
        return self.config.cores - self._used_cpus

    @property
    def free_gpu_ids(self) -> List[int]:
        if not self._up:
            return []
        return [gpu.gpu_id for gpu in self.gpus if gpu.is_free]

    @property
    def free_gpus(self) -> int:
        if not self._up:
            return 0
        return len(self.gpus) - self._used_gpus - self._failed_gpus

    @property
    def used_gpus(self) -> int:
        return self._used_gpus

    def can_fit(self, cpus: int, gpus: int) -> bool:
        if not self._up:
            return False
        return cpus <= self.free_cpus and gpus <= self.free_gpus

    def jobs_here(self) -> List[str]:
        return list(self._shares)

    def share_of(self, job_id: str) -> NodeShare:
        return self._shares[job_id]

    def holds(self, job_id: str) -> bool:
        return job_id in self._shares

    # ------------------------------------------------------------------ #
    # Allocation lifecycle

    def allocate(self, job_id: str, cpus: int, gpus: int) -> NodeShare:
        """Grant ``cpus`` cores and ``gpus`` specific GPUs to ``job_id``."""
        if job_id in self._shares:
            raise RuntimeError(f"job {job_id} already placed on node {self.node_id}")
        if cpus < 0 or gpus < 0:
            raise ValueError(f"negative request from {job_id}: {cpus}c/{gpus}g")
        if not self.can_fit(cpus, gpus):
            raise RuntimeError(
                f"node {self.node_id} cannot fit {cpus}c/{gpus}g for {job_id} "
                f"(free: {self.free_cpus}c/{self.free_gpus}g)"
            )
        granted_ids: Tuple[int, ...] = tuple(self.free_gpu_ids[:gpus])
        for gpu_id in granted_ids:
            self.gpus[gpu_id].assign(job_id)
        self._used_gpus += len(granted_ids)
        self._used_cpus += cpus
        self.usage.gpus += len(granted_ids)
        self.usage.cpus += cpus
        share = NodeShare(node_id=self.node_id, cpus=cpus, gpu_ids=granted_ids)
        self._shares[job_id] = share
        self.generation.bump_node(self.node_id, freed=False)
        return share

    def release(self, job_id: str) -> NodeShare:
        """Return everything ``job_id`` holds here, including contention
        registrations, so a released job leaves no residue behind."""
        share = self._shares.pop(job_id, None)
        if share is None:
            raise RuntimeError(f"job {job_id} holds nothing on node {self.node_id}")
        for gpu_id in share.gpu_ids:
            self.gpus[gpu_id].release(job_id)
        self._used_gpus -= len(share.gpu_ids)
        self._used_cpus -= share.cpus
        self.usage.gpus -= len(share.gpu_ids)
        self.usage.cpus -= share.cpus
        self.mba.release(job_id)
        self.bandwidth.unregister(job_id)
        self.pcie.unregister(job_id)
        self.llc_occupancy_mb.pop(job_id, None)
        self.generation.bump_node(self.node_id, freed=True)
        return share

    def resize_cpus(self, job_id: str, new_cpus: int) -> NodeShare:
        """Change the core count of a resident job (adaptive allocator)."""
        share = self._shares.get(job_id)
        if share is None:
            raise RuntimeError(f"job {job_id} holds nothing on node {self.node_id}")
        if new_cpus < 0:
            raise ValueError(f"negative core count for {job_id}: {new_cpus}")
        delta = new_cpus - share.cpus
        if delta > self.free_cpus:
            raise RuntimeError(
                f"node {self.node_id} cannot grow {job_id} by {delta} cores "
                f"(free: {self.free_cpus})"
            )
        self._used_cpus += delta
        self.usage.cpus += delta
        new_share = NodeShare(
            node_id=self.node_id, cpus=new_cpus, gpu_ids=share.gpu_ids
        )
        self._shares[job_id] = new_share
        self.generation.bump_node(self.node_id, freed=delta < 0)
        return new_share

    # ------------------------------------------------------------------ #
    # Device failures (fault injection)

    def fail_gpu(self, gpu_id: int) -> None:
        """Break one GPU; its (already evicted) slot disappears from the
        free pool until :meth:`repair_gpu`."""
        gpu = self.gpus[gpu_id]
        was_failed = gpu.failed
        gpu.mark_failed()
        self._failed_gpus += not was_failed
        self.generation.bump_node(self.node_id, freed=False)

    def repair_gpu(self, gpu_id: int) -> None:
        gpu = self.gpus[gpu_id]
        self._failed_gpus -= gpu.failed
        gpu.repair()
        self.generation.bump_node(self.node_id, freed=True)

    # ------------------------------------------------------------------ #
    # Contention-resource registration

    def register_memory_traffic(
        self,
        job_id: str,
        demand_gbps: float,
        *,
        is_cpu_job: bool,
        is_inference: bool = False,
        llc_mb: float = 0.0,
        pcie_gbps: float = 0.0,
    ) -> None:
        """Declare a resident job's memory-system footprint."""
        if not self.holds(job_id):
            raise RuntimeError(
                f"job {job_id} must be placed on node {self.node_id} before "
                "registering memory traffic"
            )
        self.bandwidth.register(
            job_id, demand_gbps, is_cpu_job=is_cpu_job, is_inference=is_inference
        )
        if llc_mb > 0:
            self.llc_occupancy_mb[job_id] = llc_mb
        if pcie_gbps > 0:
            self.pcie.register(job_id, pcie_gbps)

    @property
    def llc_pressure(self) -> float:
        """Total requested LLC occupancy over capacity (can exceed 1)."""
        total = sum(self.llc_occupancy_mb.values())
        return total / self.config.llc_mb

    # ------------------------------------------------------------------ #
    # GPU utilization (for metrics and the eliminator)

    def set_gpu_utilization(self, job_id: str, utilization: float) -> None:
        """Record the owning job's current utilization on its GPUs."""
        if not 0.0 <= utilization <= 1.0:
            raise ValueError(f"utilization out of range: {utilization}")
        share = self._shares.get(job_id)
        if share is None:
            raise RuntimeError(f"job {job_id} holds nothing on node {self.node_id}")
        for gpu_id in share.gpu_ids:
            self.gpus[gpu_id].utilization = utilization

    # ------------------------------------------------------------------ #
    # Checkpoint / restore

    STATE = Struct(
        ("up", "_up", BOOL),
        ("used_cpus", "_used_cpus", INT),
        ("shares", "_shares", DictOf(JOB_ID, _SHARE)),
        ("gpus", NESTED),
        ("llc", "llc_occupancy_mb", DictOf(JOB_ID, FLOAT)),
        ("bandwidth", NESTED),
        ("mba_levels", "mba", NESTED),
        ("pcie_demands", "pcie.demands", DictOf(JOB_ID, FLOAT)),
    )

    def _before_load(self) -> None:
        self.usage.cpus -= self._used_cpus
        self.usage.gpus -= self._used_gpus

    def _after_load(self, refs: Refs) -> None:
        self._used_gpus = sum(1 for gpu in self.gpus if gpu.owner is not None)
        self._failed_gpus = sum(1 for gpu in self.gpus if gpu.failed)
        self.usage.cpus += self._used_cpus
        self.usage.gpus += self._used_gpus
        self.generation.bump()

    def __repr__(self) -> str:
        return (
            f"Node(id={self.node_id}, cpus={self.used_cpus}/{self.total_cpus}, "
            f"gpus={self.used_gpus}/{self.total_gpus})"
        )
