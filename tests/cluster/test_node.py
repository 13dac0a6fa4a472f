"""Node allocation lifecycle and contention registration."""

import pytest

from repro.cluster.node import Node, PcieMeter
from repro.config import NodeConfig


@pytest.fixture
def node() -> Node:
    return Node(node_id=0, config=NodeConfig(cores=28, gpus=4))


class TestCapacity:
    def test_fresh_node_is_empty(self, node):
        assert node.free_cpus == 28
        assert node.free_gpus == 4
        assert node.used_cpus == 0

    def test_can_fit_respects_both_dimensions(self, node):
        assert node.can_fit(28, 4)
        assert not node.can_fit(29, 0)
        assert not node.can_fit(0, 5)


class TestAllocate:
    def test_allocate_grants_specific_gpus(self, node):
        share = node.allocate("j1", 4, 2)
        assert share.cpus == 4
        assert share.gpu_ids == (0, 1)
        assert node.free_gpus == 2
        assert node.free_cpus == 24

    def test_gpu_devices_record_owner(self, node):
        node.allocate("j1", 2, 1)
        assert node.gpus[0].owner == "j1"
        assert node.gpus[1].owner is None

    def test_cpu_only_allocation(self, node):
        share = node.allocate("cpu1", 8, 0)
        assert share.gpu_ids == ()
        assert node.free_cpus == 20

    def test_double_allocate_same_job_raises(self, node):
        node.allocate("j1", 2, 1)
        with pytest.raises(RuntimeError):
            node.allocate("j1", 2, 1)

    def test_overallocation_raises(self, node):
        node.allocate("j1", 20, 0)
        with pytest.raises(RuntimeError):
            node.allocate("j2", 10, 0)

    def test_negative_request_raises(self, node):
        with pytest.raises(ValueError):
            node.allocate("j1", -1, 0)

    def test_second_job_gets_remaining_gpus(self, node):
        node.allocate("j1", 2, 2)
        share = node.allocate("j2", 2, 2)
        assert share.gpu_ids == (2, 3)


class TestRelease:
    def test_release_returns_everything(self, node):
        node.allocate("j1", 4, 2)
        node.release("j1")
        assert node.free_cpus == 28
        assert node.free_gpus == 4
        assert not node.holds("j1")

    def test_release_unknown_raises(self, node):
        with pytest.raises(RuntimeError):
            node.release("ghost")

    def test_release_clears_contention_registrations(self, node):
        node.allocate("j1", 4, 2)
        node.register_memory_traffic(
            "j1", 10.0, is_cpu_job=False, llc_mb=2.0, pcie_gbps=8.0
        )
        node.release("j1")
        assert not node.bandwidth.has("j1")
        assert node.pcie.total_demand == 0.0
        assert node.llc_pressure == 0.0

    def test_release_clears_mba_throttle(self, node):
        node.allocate("cpu1", 8, 0)
        node.register_memory_traffic("cpu1", 50.0, is_cpu_job=True)
        node.mba.throttle_down("cpu1")
        node.release("cpu1")
        assert node.mba.throttled_jobs() == {}


class TestResize:
    def test_grow(self, node):
        node.allocate("j1", 4, 1)
        share = node.resize_cpus("j1", 8)
        assert share.cpus == 8
        assert node.free_cpus == 20

    def test_shrink(self, node):
        node.allocate("j1", 8, 1)
        node.resize_cpus("j1", 2)
        assert node.free_cpus == 26

    def test_resize_keeps_gpus(self, node):
        node.allocate("j1", 4, 2)
        share = node.resize_cpus("j1", 6)
        assert share.gpu_ids == (0, 1)

    def test_grow_beyond_free_raises(self, node):
        node.allocate("j1", 4, 1)
        node.allocate("j2", 22, 0)
        with pytest.raises(RuntimeError):
            node.resize_cpus("j1", 8)

    def test_resize_unknown_raises(self, node):
        with pytest.raises(RuntimeError):
            node.resize_cpus("ghost", 4)


class TestContentionRegistration:
    def test_requires_residency(self, node):
        with pytest.raises(RuntimeError):
            node.register_memory_traffic("ghost", 5.0, is_cpu_job=True)

    def test_llc_pressure_accumulates(self, node):
        node.allocate("a", 2, 0)
        node.allocate("b", 2, 0)
        node.register_memory_traffic("a", 1.0, is_cpu_job=True, llc_mb=20.0)
        node.register_memory_traffic("b", 1.0, is_cpu_job=True, llc_mb=20.0)
        assert node.llc_pressure == pytest.approx(40.0 / 38.5)


class TestGpuUtilization:
    def test_set_and_average(self, node):
        node.allocate("j1", 4, 2)
        node.set_gpu_utilization("j1", 0.8)
        owned = [gpu.utilization for gpu in node.gpus if not gpu.is_free]
        assert owned == pytest.approx([0.8, 0.8])

    def test_out_of_range_raises(self, node):
        node.allocate("j1", 4, 1)
        with pytest.raises(ValueError):
            node.set_gpu_utilization("j1", 1.5)

    def test_unknown_job_raises(self, node):
        with pytest.raises(RuntimeError):
            node.set_gpu_utilization("ghost", 0.5)


class TestPcieMeter:
    def test_undersubscribed_ratio_is_one(self):
        meter = PcieMeter(capacity_gbps=32.0)
        meter.register("a", 12.0)
        meter.register("b", 12.0)
        assert meter.grant_ratio() == 1.0

    def test_oversubscribed_degrades_proportionally(self):
        meter = PcieMeter(capacity_gbps=32.0)
        meter.register("a", 24.0)
        meter.register("b", 24.0)
        assert meter.grant_ratio() == pytest.approx(32.0 / 48.0)

    def test_unregister(self):
        meter = PcieMeter(capacity_gbps=32.0)
        meter.register("a", 24.0)
        meter.unregister("a")
        assert meter.total_demand == 0.0
