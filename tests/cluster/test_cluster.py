"""Cluster-level allocation, rollback, and readings."""

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.resources import ResourceVector
from repro.config import ClusterConfig, NodeConfig, paper_cluster, small_cluster


class TestConstruction:
    def test_default_is_paper_cluster(self):
        cluster = Cluster()
        assert len(cluster.nodes) == 80
        assert cluster.total == ResourceVector(cpus=80 * 28, gpus=400)

    def test_paper_cluster_config_totals(self):
        config = paper_cluster()
        assert config.num_nodes == 80
        assert config.total_gpus == 400
        assert sum(node.cores for node in config.expand()) == 2240

    def test_small_cluster(self):
        cluster = Cluster(small_cluster(nodes=3, gpus_per_node=2))
        assert len(cluster.nodes) == 3
        assert cluster.total.gpus == 6

    def test_node_ids_are_sequential(self, mixed_cluster):
        assert [node.node_id for node in mixed_cluster.nodes] == [0, 1, 2, 3]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ClusterConfig(node_groups=())
        with pytest.raises(ValueError):
            ClusterConfig(node_groups=((0, NodeConfig()),))
        with pytest.raises(ValueError):
            NodeConfig(cores=0)


class TestAllocate:
    def test_single_node_allocation(self, tiny_cluster):
        allocation = tiny_cluster.allocate("j1", [(0, 4, 2)])
        assert allocation.total == ResourceVector(cpus=4, gpus=2)
        assert tiny_cluster.used == ResourceVector(cpus=4, gpus=2)

    def test_multi_node_allocation(self, tiny_cluster):
        allocation = tiny_cluster.allocate("j1", [(0, 2, 2), (1, 2, 2)])
        assert allocation.num_nodes == 2
        assert tiny_cluster.node(0).used_gpus == 2
        assert tiny_cluster.node(1).used_gpus == 2

    def test_double_allocation_raises(self, tiny_cluster):
        tiny_cluster.allocate("j1", [(0, 1, 0)])
        with pytest.raises(RuntimeError):
            tiny_cluster.allocate("j1", [(1, 1, 0)])

    def test_empty_placement_raises(self, tiny_cluster):
        with pytest.raises(ValueError):
            tiny_cluster.allocate("j1", [])

    def test_failed_multi_node_allocation_rolls_back(self, tiny_cluster):
        """If node 1 cannot host its share, node 0's grant is undone."""
        tiny_cluster.allocate("blocker", [(1, 28, 0)])
        with pytest.raises(RuntimeError):
            tiny_cluster.allocate("j1", [(0, 2, 2), (1, 2, 2)])
        assert tiny_cluster.node(0).free_cpus == 28
        assert tiny_cluster.node(0).free_gpus == 4
        assert not tiny_cluster.has_allocation("j1")


class TestRelease:
    def test_release_frees_all_nodes(self, tiny_cluster):
        tiny_cluster.allocate("j1", [(0, 2, 2), (1, 2, 2)])
        tiny_cluster.release("j1")
        assert tiny_cluster.used == ResourceVector()

    def test_release_unknown_raises(self, tiny_cluster):
        with pytest.raises(RuntimeError):
            tiny_cluster.release("ghost")


class TestResize:
    def test_resize_across_nodes(self, tiny_cluster):
        tiny_cluster.allocate("j1", [(0, 2, 1), (1, 2, 1)])
        tiny_cluster.resize_cpus("j1", {0: 4, 1: 4})
        allocation = tiny_cluster.allocation_of("j1")
        assert allocation.total.cpus == 8

    def test_resize_unknown_raises(self, tiny_cluster):
        with pytest.raises(RuntimeError):
            tiny_cluster.resize_cpus("ghost", {0: 4})


class TestReadings:
    def test_gpu_active_rate(self, tiny_cluster):
        assert tiny_cluster.gpu_active_rate() == 0.0
        tiny_cluster.allocate("j1", [(0, 2, 4)])
        assert tiny_cluster.gpu_active_rate() == pytest.approx(0.5)

    def test_cpu_active_rate(self, tiny_cluster):
        tiny_cluster.allocate("j1", [(0, 14, 0)])
        assert tiny_cluster.cpu_active_rate() == pytest.approx(14 / 56)

    def test_mean_gpu_utilization_active_only(self, tiny_cluster):
        tiny_cluster.allocate("j1", [(0, 2, 2)])
        tiny_cluster.node(0).set_gpu_utilization("j1", 0.6)
        assert tiny_cluster.mean_gpu_utilization() == pytest.approx(0.6)

    def test_mean_gpu_utilization_overall_counts_idle(self, tiny_cluster):
        tiny_cluster.allocate("j1", [(0, 2, 2)])
        tiny_cluster.node(0).set_gpu_utilization("j1", 0.8)
        overall = tiny_cluster.mean_gpu_utilization(active_only=False)
        assert overall == pytest.approx(0.8 * 2 / 8)

    def test_mean_gpu_utilization_empty_cluster(self, tiny_cluster):
        assert tiny_cluster.mean_gpu_utilization() == 0.0

    def test_nodes_with_free(self, tiny_cluster):
        tiny_cluster.allocate("j1", [(0, 28, 0)])
        free = [node for node in tiny_cluster.nodes if node.can_fit(1, 0)]
        assert [node.node_id for node in free] == [1]


def _walk(cluster):
    """(used cores, owned GPUs, free GPUs) from the devices themselves."""
    cpus = sum(node.used_cpus for node in cluster.nodes)
    gpus = sum(
        gpu.owner is not None for node in cluster.nodes for gpu in node.gpus
    )
    free = [len(node.free_gpu_ids) for node in cluster.nodes]
    return cpus, gpus, free


class TestMaintainedCounts:
    """Cluster usage and per-node free GPUs are O(1) counters; every
    mutation keeps them equal to a walk of the devices."""

    @staticmethod
    def _counts(cluster):
        used = cluster.used
        free = [node.free_gpus for node in cluster.nodes]
        return used.cpus, cluster.gpu_active_count(), free

    def test_every_mutation_keeps_the_counts(self, tiny_cluster):
        cluster = tiny_cluster
        steps = [
            lambda: cluster.allocate("a", [(0, 6, 2), (1, 6, 2)]),
            lambda: cluster.allocate("b", [(0, 4, 1)]),
            lambda: cluster.resize_cpus("a", {0: 10, 1: 3}),
            lambda: cluster.node(1).fail_gpu(3),
            lambda: cluster.node(1).fail_gpu(3),  # already failed
            lambda: cluster.release("b"),
            lambda: cluster.node(0).fail_gpu(3),
            lambda: cluster.node(1).repair_gpu(3),
            lambda: cluster.node(1).repair_gpu(3),  # already repaired
        ]
        for step in steps:
            step()
            assert self._counts(cluster) == _walk(cluster)
        assert self._counts(cluster) == (13, 4, [1, 2])

    def test_down_node_has_no_free_gpus(self, tiny_cluster):
        tiny_cluster.node(1).mark_down()
        assert tiny_cluster.node(1).free_gpus == 0
        assert self._counts(tiny_cluster) == _walk(tiny_cluster)

    def test_restore_resets_the_counts(self, tiny_cluster):
        tiny_cluster.allocate("a", [(0, 6, 2)])
        tiny_cluster.node(1).fail_gpu(0)
        state = tiny_cluster.snapshot()
        tiny_cluster.release("a")
        tiny_cluster.allocate("b", [(1, 20, 3)])
        tiny_cluster.node(1).repair_gpu(0)
        tiny_cluster.restore(state)
        assert self._counts(tiny_cluster) == _walk(tiny_cluster) == (6, 2, [2, 3])
