"""Resource-array layout (Sec. V-C, Fig. 9).

The multi-array scheduler divides the cluster two ways:

* **CPU array vs GPU array** — on every node, ``reserved_cores`` CPU cores
  belong to the GPU array (reserved for training jobs); the rest form the
  CPU array where CPU jobs normally live.  "This part of the computing
  resources is derived from historical statistical information."
* **1-GPU vs 4-GPU sub-array** — a subset of nodes (the GPU-densest ones)
  is set aside for jobs demanding four GPUs or more; the remainder serves
  smaller jobs.  "The maximum GPU number required by 4-GPU jobs in the
  historical statistics is designated as the corresponding initial
  resource division."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Sequence

from repro.cluster.cluster import Cluster

#: Default per-node reservation for GPU jobs: sized for a node full of
#: tuned trainers (4 GPUs x ~4 cores each) out of 28 cores.
DEFAULT_RESERVED_CORES = 16

#: Default share of the cluster's GPUs set aside for the 4-GPU sub-array.
#: Half the fleet: all of the GPU-densest (8-GPU) nodes plus enough 4-GPU
#: nodes that 4-GPU jobs best-fit onto the latter and leave whole 8-GPU
#: nodes for the biggest single-node jobs.
DEFAULT_FOUR_GPU_FRACTION = 0.5

#: Jobs demanding at least this many GPUs in total belong to the 4-GPU
#: sub-array ("jobs that apply for 4 GPUs or more").
FOUR_GPU_THRESHOLD = 4


@dataclass(frozen=True)
class ArrayLayout:
    """The static division of cluster resources into arrays."""

    four_gpu_nodes: FrozenSet[int]
    one_gpu_nodes: FrozenSet[int]
    reserved_cores: int

    def __post_init__(self) -> None:
        if self.four_gpu_nodes & self.one_gpu_nodes:
            raise ValueError("sub-arrays overlap")
        if self.reserved_cores < 0:
            raise ValueError(f"negative reservation: {self.reserved_cores}")

    def primary_nodes(self, total_gpus_demanded: int) -> FrozenSet[int]:
        """The sub-array a job of this GPU demand belongs to."""
        if total_gpus_demanded >= FOUR_GPU_THRESHOLD:
            return self.four_gpu_nodes
        return self.one_gpu_nodes

    def fallback_nodes(self, total_gpus_demanded: int) -> FrozenSet[int]:
        """The other sub-array, used when the primary is exhausted."""
        if total_gpus_demanded >= FOUR_GPU_THRESHOLD:
            return self.one_gpu_nodes
        return self.four_gpu_nodes

    def cpu_array_capacity(
        self, node_total_cores: int, node_total_gpus: int = 1
    ) -> int:
        """Cores on a node that belong to the CPU array.

        The GPU-array reservation only makes sense on nodes that host
        GPUs; on pure CPU nodes (the larger mixed clusters of Sec. VI-G)
        every core belongs to the CPU array.
        """
        if node_total_gpus == 0:
            return node_total_cores
        return max(0, node_total_cores - self.reserved_cores)


def build_layout(
    cluster: Cluster,
    *,
    reserved_cores: int = DEFAULT_RESERVED_CORES,
    four_gpu_fraction: float = DEFAULT_FOUR_GPU_FRACTION,
    historical_big_job_gpus: Optional[Sequence[int]] = None,
) -> ArrayLayout:
    """Carve the cluster into the Fig. 9 arrays.

    GPU-densest nodes fill the 4-GPU sub-array until it holds
    ``four_gpu_fraction`` of all GPUs.  When historical big-job GPU demands
    are supplied, the fraction is instead derived from them (their share of
    total demand, clamped to [0.1, 0.8]) — the paper's "historical
    statistical information".
    """
    if not 0.0 <= four_gpu_fraction <= 1.0:
        raise ValueError(f"four_gpu_fraction out of [0, 1]: {four_gpu_fraction}")
    if historical_big_job_gpus:
        total_demand = sum(historical_big_job_gpus)
        big_demand = sum(
            g for g in historical_big_job_gpus if g >= FOUR_GPU_THRESHOLD
        )
        if total_demand > 0:
            four_gpu_fraction = min(0.8, max(0.1, big_demand / total_demand))

    total_gpus = cluster.total.gpus
    target = four_gpu_fraction * total_gpus
    ordered: List = sorted(
        cluster.nodes, key=lambda node: (-node.total_gpus, node.node_id)
    )
    four_nodes: List[int] = []
    accumulated = 0
    for node in ordered:
        if accumulated >= target:
            break
        four_nodes.append(node.node_id)
        accumulated += node.total_gpus
    four_set = frozenset(four_nodes)
    one_set = frozenset(
        node.node_id for node in cluster.nodes if node.node_id not in four_set
    )
    return ArrayLayout(
        four_gpu_nodes=four_set,
        one_gpu_nodes=one_set,
        reserved_cores=reserved_cores,
    )
