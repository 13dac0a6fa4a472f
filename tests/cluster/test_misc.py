"""GPU device, allocation records, and interconnect."""

import pytest

from repro.cluster.allocation import Allocation, NodeShare
from repro.cluster.gpu import Gpu
from repro.cluster.interconnect import Interconnect
from repro.cluster.resources import ResourceVector


class TestGpu:
    def test_fresh_gpu_is_free(self):
        assert Gpu(gpu_id=0).is_free

    def test_assign_and_release(self):
        gpu = Gpu(gpu_id=0)
        gpu.assign("j1")
        assert gpu.owner == "j1"
        gpu.release("j1")
        assert gpu.is_free

    def test_double_assign_raises(self):
        gpu = Gpu(gpu_id=0)
        gpu.assign("j1")
        with pytest.raises(RuntimeError):
            gpu.assign("j2")

    def test_release_by_non_owner_raises(self):
        gpu = Gpu(gpu_id=0)
        gpu.assign("j1")
        with pytest.raises(RuntimeError):
            gpu.release("j2")

    def test_release_clears_utilization(self):
        gpu = Gpu(gpu_id=0)
        gpu.assign("j1")
        gpu.utilization = 0.9
        gpu.release("j1")
        assert gpu.utilization == 0.0


class TestNodeShare:
    def test_vector(self):
        share = NodeShare(node_id=0, cpus=4, gpu_ids=(0, 1))
        assert share.vector == ResourceVector(cpus=4, gpus=2)
        assert share.gpus == 2

    def test_negative_cpus_raises(self):
        with pytest.raises(ValueError):
            NodeShare(node_id=0, cpus=-1)


class TestAllocation:
    def _allocation(self):
        return Allocation(
            job_id="j1",
            shares=[
                NodeShare(node_id=0, cpus=4, gpu_ids=(0,)),
                NodeShare(node_id=2, cpus=4, gpu_ids=(1, 2)),
            ],
        )

    def test_totals(self):
        allocation = self._allocation()
        assert allocation.total == ResourceVector(cpus=8, gpus=3)
        assert allocation.node_ids == (0, 2)
        assert allocation.num_nodes == 2

    def test_share_on(self):
        allocation = self._allocation()
        assert {s.node_id: s.gpus for s in allocation.shares} == {0: 1, 2: 2}

    def test_replace_share(self):
        allocation = self._allocation()
        allocation.replace_share(NodeShare(node_id=0, cpus=8, gpu_ids=(0,)))
        assert [s.cpus for s in allocation.shares if s.node_id == 0] == [8]

    def test_replace_unknown_node_raises(self):
        with pytest.raises(KeyError):
            self._allocation().replace_share(NodeShare(node_id=9, cpus=1))

    def test_cpus_by_node(self):
        assert self._allocation().cpus_by_node() == {0: 4, 2: 4}


class TestInterconnect:
    def test_single_node_sync_is_free(self):
        assert Interconnect().sync_time(1e9, 1) == 0.0

    def test_multi_node_sync_is_push_plus_pull(self):
        fabric = Interconnect(link_gbps=1.25, latency_s=0.0)
        # 100 MB of weights: 2 * 0.1 GB / 1.25 GB/s = 0.16 s
        assert fabric.sync_time(100e6, 2) == pytest.approx(0.16)

    def test_latency_is_added(self):
        fabric = Interconnect(link_gbps=1.25, latency_s=1e-3)
        assert fabric.sync_time(0.0, 2) == pytest.approx(2e-3)

    def test_invalid_inputs_raise(self):
        with pytest.raises(ValueError):
            Interconnect(link_gbps=0.0)
        with pytest.raises(ValueError):
            Interconnect().sync_time(-1.0, 2)
        with pytest.raises(ValueError):
            Interconnect().sync_time(1.0, 0)
