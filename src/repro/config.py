"""Library-wide configuration dataclasses.

The defaults reproduce the paper's testbed (Sec. III-A): about 80 PCIe-based
multi-GPU servers totalling 400 GTX 1080Ti GPUs, each server with two Intel
Xeon Gold 6132 sockets (2 x 14 = 28 cores), interconnected by 10 Gb/s
Infiniband.  Memory-system constants are those of that CPU generation:
~128 GB/s of DRAM bandwidth per node (two sockets x six DDR4-2666 channels,
derated), 19.25 MB of LLC per socket, and PCIe 3.0 x16 per GPU.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple


@dataclass(frozen=True)
class NodeConfig:
    """Hardware shape of one server."""

    cores: int = 28
    gpus: int = 4
    mem_bandwidth_gbps: float = 128.0
    llc_mb: float = 38.5
    pcie_gbps: float = 32.0
    mba_supported: bool = True

    def __post_init__(self) -> None:
        if self.cores <= 0:
            raise ValueError(f"node needs at least one core: {self}")
        if self.gpus < 0:
            raise ValueError(f"negative GPU count: {self}")
        if self.mem_bandwidth_gbps <= 0 or self.pcie_gbps <= 0:
            raise ValueError(f"bandwidth capacities must be positive: {self}")


@dataclass(frozen=True)
class ClusterConfig:
    """Shape of the whole cluster.

    ``node_groups`` is a list of (count, NodeConfig): the default is 60
    4-GPU servers plus 20 8-GPU servers = 80 nodes / 400 GPUs, matching the
    paper's totals while giving the multi-array scheduler's 4-GPU sub-array
    real 8-GPU nodes to work with.
    """

    node_groups: Tuple[Tuple[int, NodeConfig], ...] = (
        (60, NodeConfig(gpus=4)),
        (20, NodeConfig(gpus=8)),
    )
    interconnect_gbps: float = 1.25  # 10 Gb/s Infiniband, in GB/s
    #: Optional rack structure: None = flat (the paper's unstated default).
    nodes_per_rack: Optional[int] = None
    #: Inter-rack oversubscription ratio (1.0 = non-blocking core).
    rack_oversubscription: float = 1.0

    def __post_init__(self) -> None:
        if not self.node_groups:
            raise ValueError("cluster must have at least one node group")
        for count, node in self.node_groups:
            if count <= 0:
                raise ValueError(f"node group count must be positive: {count}")
        if self.nodes_per_rack is not None and self.nodes_per_rack < 1:
            raise ValueError(f"nodes_per_rack must be >= 1: {self.nodes_per_rack}")
        if self.rack_oversubscription < 1.0:
            raise ValueError(
                f"rack_oversubscription must be >= 1: {self.rack_oversubscription}"
            )

    @property
    def num_nodes(self) -> int:
        return sum(count for count, _ in self.node_groups)

    @property
    def total_gpus(self) -> int:
        return sum(count * node.gpus for count, node in self.node_groups)

    def expand(self) -> List[NodeConfig]:
        """One NodeConfig per node, in deterministic order."""
        nodes: List[NodeConfig] = []
        for count, node in self.node_groups:
            nodes.extend([node] * count)
        return nodes


def paper_cluster() -> ClusterConfig:
    """The testbed of Sec. III-A: 80 nodes, 400 GPUs, 28 cores each."""
    return ClusterConfig()


def small_cluster(nodes: int = 4, gpus_per_node: int = 4) -> ClusterConfig:
    """A laptop-scale cluster for tests and the quickstart example."""
    return ClusterConfig(
        node_groups=((nodes, NodeConfig(gpus=gpus_per_node)),)
    )
