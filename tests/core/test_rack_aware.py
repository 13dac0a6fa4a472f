"""Rack-aware gang placement (extension) and its runtime effect."""

import pytest

from repro.cluster.cluster import Cluster
from repro.config import ClusterConfig, NodeConfig
from repro.core.coda import CodaConfig, CodaScheduler
from repro.experiments.runner import SimulationRunner
from repro.perfmodel.stages import TrainSetup
from repro.workload.job import GpuJob


def _racked_cluster(oversubscription=8.0) -> Cluster:
    """Eight 4-GPU nodes, two racks of four, oversubscribed core."""
    return Cluster(
        ClusterConfig(
            node_groups=((8, NodeConfig(gpus=4)),),
            nodes_per_rack=4,
            rack_oversubscription=oversubscription,
            interconnect_gbps=0.125,  # slow enough that physics dominates
        )
    )


def _gang(job_id, iters=2000, submit=0.0, model="vgg16"):
    return GpuJob(
        job_id=job_id,
        tenant_id=1,
        submit_time=submit,
        model_name=model,
        setup=TrainSetup(2, 2),
        requested_cpus=2,
        total_iterations=iters,
    )


class TestRuntimeEffect:
    def test_cross_rack_gang_trains_slower(self):
        """The racked fabric reaches the performance model: the same gang
        priced across racks synchronizes over the oversubscribed core."""
        from repro.perfmodel.catalog import get_model
        from repro.perfmodel.speed import iteration_time

        cluster = _racked_cluster()
        profile = get_model("vgg16")
        setup = TrainSetup(2, 2)
        same_fabric = cluster.fabric.for_nodes([0, 1])
        cross_fabric = cluster.fabric.for_nodes([0, 4])
        same_iter = iteration_time(profile, setup, 2, interconnect=same_fabric)
        cross_iter = iteration_time(profile, setup, 2, interconnect=cross_fabric)
        assert cross_iter.total_s > same_iter.total_s

    def test_runner_prices_gangs_through_the_fabric(self):
        """A gang the scheduler placed within a rack runs at the
        intra-rack speed the model predicts."""
        from repro.perfmodel.catalog import get_model
        from repro.perfmodel.speed import iteration_time

        cluster = _racked_cluster()
        runner = SimulationRunner(
            cluster, CodaScheduler(), sample_interval_s=600.0
        )
        runner.submit_at(0.0, _gang("same", iters=10**6))
        runner.engine.run(until=1.0)
        nodes = cluster.allocation_of("same").node_ids
        assert cluster.topology.same_rack(nodes)
        expected = iteration_time(
            get_model("vgg16"),
            TrainSetup(2, 2),
            cluster.allocation_of("same").shares[0].cpus,
            interconnect=cluster.fabric.for_nodes(nodes),
        )
        assert runner.progress.running["same"].speed == pytest.approx(
            1.0 / expected.total_s
        )


class TestPlacementPreference:
    def test_rack_aware_keeps_gangs_in_one_rack(self):
        cluster = _racked_cluster()
        scheduler = CodaScheduler(CodaConfig(rack_aware_placement=True))
        runner = SimulationRunner(cluster, scheduler, sample_interval_s=600.0)
        for index in range(4):
            runner.submit_at(0.0, _gang(f"g{index}", iters=10**6))
        runner.engine.run(until=1.0)
        for index in range(4):
            nodes = cluster.allocation_of(f"g{index}").node_ids
            assert cluster.topology.same_rack(nodes), f"g{index}: {nodes}"

    def test_rack_aware_still_places_when_no_rack_fits(self):
        """Preference, not admission control: with every rack partially
        used, the gang straddles racks rather than queueing."""
        cluster = _racked_cluster()
        # Occupy all GPUs of three nodes in each rack.
        cluster.allocate("wall", [(n, 1, 4) for n in (0, 1, 2, 4, 5, 6)])
        scheduler = CodaScheduler(CodaConfig(rack_aware_placement=True))
        runner = SimulationRunner(cluster, scheduler, sample_interval_s=600.0)
        runner.submit_at(0.0, _gang("straddler", iters=100))
        runner.engine.run(until=1.0)
        nodes = cluster.allocation_of("straddler").node_ids
        assert not cluster.topology.same_rack(nodes)

    def test_default_is_off_and_flat_topology_is_untouched(self):
        assert CodaConfig().rack_aware_placement is False
        cluster = Cluster(ClusterConfig(node_groups=((4, NodeConfig(gpus=4)),)))
        scheduler = CodaScheduler(CodaConfig(rack_aware_placement=True))
        runner = SimulationRunner(cluster, scheduler, sample_interval_s=600.0)
        runner.submit_at(0.0, _gang("g", iters=10))
        runner.engine.run(until=100.0)
        assert runner.collector.records["g"].finish_time is not None