"""Multi-node job execution details in the runner."""

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.resources import ResourceVector
from repro.config import small_cluster
from repro.experiments.runner import SimulationRunner
from repro.perfmodel.stages import TrainSetup
from repro.schedulers.fifo import FifoScheduler
from repro.workload.heat import heat_job
from repro.workload.job import GpuJob


def _gang(job_id="gang", iters=5000, cpus=2):
    return GpuJob(
        job_id=job_id,
        tenant_id=1,
        submit_time=0.0,
        model_name="deepspeech",
        setup=TrainSetup(2, 2),
        requested_cpus=cpus,
        total_iterations=iters,
    )


class TestWorstNodePacing:
    def test_contention_on_one_node_slows_the_whole_gang(self):
        """Iterations are paced by the slowest participant: pressure on
        either node slows the job identically."""
        runner_quiet = SimulationRunner(
            Cluster(small_cluster(nodes=2)), FifoScheduler(),
            sample_interval_s=600.0,
        )
        runner_quiet.submit_at(0.0, _gang())
        runner_quiet.engine.run(until=5.0)
        quiet_speed = runner_quiet.progress.running["gang"].speed

        for hot_node in (0, 1):
            runner = SimulationRunner(
                Cluster(small_cluster(nodes=2)), FifoScheduler(),
                sample_interval_s=600.0,
            )
            runner.submit_at(0.0, _gang())
            runner.engine.run(until=1.0)
            # Inject HEAT directly onto one specific node.
            node = runner.cluster.node(hot_node)
            heat = heat_job("heat", 1.0, threads=14, duration_s=1e6)
            runner.cluster.allocate("heat", [(hot_node, 14, 0)])
            node.register_memory_traffic(
                "heat", heat.bw_demand_gbps, is_cpu_job=True
            )
            runner.progress.touch({hot_node})
            hot_speed = runner.progress.running["gang"].speed
            assert hot_speed < quiet_speed, hot_node

    def test_gang_utilization_published_on_both_nodes(self):
        runner = SimulationRunner(
            Cluster(small_cluster(nodes=2)), FifoScheduler(),
            sample_interval_s=600.0,
        )
        runner.submit_at(0.0, _gang())
        runner.engine.run(until=5.0)
        utils = {
            node.node_id: [gpu.utilization for gpu in node.gpus if not gpu.is_free]
            for node in runner.cluster.nodes
        }
        assert utils[0] and utils[0] == pytest.approx(utils[1])

    def test_gang_releases_both_nodes_on_completion(self):
        runner = SimulationRunner(
            Cluster(small_cluster(nodes=2)), FifoScheduler(),
            sample_interval_s=600.0,
        )
        runner.submit_at(0.0, _gang(iters=3))
        runner.engine.run()
        assert runner.cluster.used == ResourceVector()

    def test_gang_resize_applies_to_every_node(self):
        runner = SimulationRunner(
            Cluster(small_cluster(nodes=2)), FifoScheduler(),
            sample_interval_s=600.0,
        )
        runner.submit_at(0.0, _gang(cpus=1))
        runner.engine.run(until=1.0)
        assert runner.resize_gpu_job_cores("gang", 2)
        allocation = runner.cluster.allocation_of("gang")
        assert [share.cpus for share in allocation.shares] == [2, 2]
