"""Allocation records.

An :class:`Allocation` is the scheduler's receipt for resources granted to a
job: one :class:`NodeShare` per node involved.  Single-node jobs (the common
case) have one share; multi-node DNN training jobs (the paper's *aNbG*
configurations with a > 1) have several.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.cluster.resources import ResourceVector


@dataclass(frozen=True)
class NodeShare:
    """Resources held on a single node: cores and specific GPU ids."""

    node_id: int
    cpus: int
    gpu_ids: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.cpus < 0:
            raise ValueError(f"negative core count in share: {self}")

    @property
    def gpus(self) -> int:
        return len(self.gpu_ids)

    @property
    def vector(self) -> ResourceVector:
        return ResourceVector(cpus=self.cpus, gpus=self.gpus)


@dataclass
class Allocation:
    """All resources held by one job, across one or more nodes.

    Mutable on purpose: the adaptive CPU allocator retunes the core count of
    a running job in place (via :meth:`Cluster.resize_cpus`), which swaps the
    relevant :class:`NodeShare` for one on the same node, so ``node_ids`` is
    fixed at construction.
    """

    job_id: str
    shares: List[NodeShare] = field(default_factory=list)
    node_ids: Tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.node_ids = tuple(share.node_id for share in self.shares)

    @property
    def total(self) -> ResourceVector:
        total = ResourceVector()
        for share in self.shares:
            total = total + share.vector
        return total

    @property
    def num_nodes(self) -> int:
        return len(self.shares)

    def replace_share(self, new_share: NodeShare) -> None:
        """Swap the share on ``new_share.node_id`` (used by core retuning)."""
        for index, share in enumerate(self.shares):
            if share.node_id == new_share.node_id:
                self.shares[index] = new_share
                return
        raise KeyError(
            f"job {self.job_id} holds nothing on node {new_share.node_id}"
        )

    def cpus_by_node(self) -> Dict[int, int]:
        return {share.node_id: share.cpus for share in self.shares}
