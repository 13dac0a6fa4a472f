"""CodaScheduler wiring (Fig. 8) on the real simulation runner."""

import pytest

from repro.cluster.cluster import Cluster
from repro.config import ClusterConfig, NodeConfig, small_cluster
from repro.core.coda import CodaConfig, CodaScheduler
from repro.core.eliminator import EliminatorConfig
from repro.experiments.runner import SimulationRunner
from repro.perfmodel.stages import TrainSetup
from repro.workload.heat import heat_job
from repro.workload.job import GpuJob


def _gpu(job_id, model="resnet50", gpus=1, nodes=1, submit=0.0, iters=2000):
    return GpuJob(
        job_id=job_id,
        tenant_id=1,
        submit_time=submit,
        model_name=model,
        setup=TrainSetup(nodes, gpus),
        requested_cpus=2,
        total_iterations=iters,
    )


def _runner(scheduler=None, nodes=2):
    cluster = Cluster(small_cluster(nodes=nodes))
    scheduler = scheduler or CodaScheduler()
    return SimulationRunner(cluster, scheduler, sample_interval_s=600.0), scheduler


class TestAllocatorIntegration:
    def test_job_starts_at_nstart_and_tunes_to_optimum(self):
        runner, scheduler = _runner()
        job = _gpu("j", model="alexnet", iters=3000)  # optimum 8, CV start 3
        runner.submit_at(0.0, job)
        runner.engine.run(until=900.0)
        allocation = runner.cluster.allocation_of("j")
        assert allocation.shares[0].cpus == 8
        outcome = scheduler.allocator.outcomes["j"]
        assert outcome.n_start == 3
        assert outcome.tuned_cores == 8

    def test_second_job_of_tenant_starts_from_history(self):
        runner, scheduler = _runner()
        runner.submit_at(0.0, _gpu("first", model="alexnet", iters=1200))
        runner.engine.run(until=4000.0)
        assert runner.collector.records["first"].finish_time is not None
        runner.submit_at(4000.0, _gpu("second", model="alexnet", iters=1000))
        runner.engine.run(until=4001.0)
        allocation = runner.cluster.allocation_of("second")
        assert allocation.shares[0].cpus == 8  # history, not the CV default

    def test_tuning_shows_in_collector_final_cpus(self):
        runner, scheduler = _runner()
        runner.submit_at(0.0, _gpu("j", model="wavenet", iters=200))
        runner.engine.run(until=1500.0)
        record = runner.collector.records["j"]
        assert record.final_cpus == 6  # wavenet optimum

    def test_short_job_finishing_mid_tuning_is_clean(self):
        runner, scheduler = _runner()
        runner.submit_at(0.0, _gpu("j", model="resnet50", iters=10))
        runner.engine.run(until=2000.0)
        assert runner.collector.records["j"].finish_time is not None
        assert "j" not in scheduler.allocator.snapshot()["active"]


class TestEliminatorIntegration:
    def _hot_runner(self, mba=True):
        cluster = Cluster(
            ClusterConfig(
                node_groups=(
                    # A single-socket-equivalent node: the 96 GB/s HEAT
                    # instance pushes it well past the 75 % threshold.
                    (1, NodeConfig(gpus=4, mem_bandwidth_gbps=110.0,
                                   mba_supported=mba)),
                )
            )
        )
        scheduler = CodaScheduler(
            CodaConfig(eliminator=EliminatorConfig(monitor_interval_s=30.0))
        )
        runner = SimulationRunner(cluster, scheduler, sample_interval_s=600.0)
        # A contention-sensitive NLP trainer plus a HEAT hog on one node.
        runner.submit_at(0.0, _gpu("nlp", model="bat", iters=2000))
        runner.submit_at(
            1.0, heat_job("heat", 1.0, threads=12, duration_s=7200.0, tenant_id=18)
        )
        return runner, scheduler

    def test_eliminator_throttles_heat_job(self):
        runner, scheduler = self._hot_runner()
        runner.engine.run(until=600.0)
        assert scheduler.eliminator.throttle_actions >= 1
        node = runner.cluster.nodes[0]
        assert node.mba.throttle_level("heat") < 1.0

    def test_throttling_restores_trainer_speed(self):
        runner, scheduler = self._hot_runner()
        # Read just before the first 30-second monitor tick fires.
        runner.engine.run(until=29.0)
        degraded = runner.gpu_job_utilization("nlp")
        runner.engine.run(until=3600.0)
        recovered = runner.gpu_job_utilization("nlp")
        assert recovered > degraded * 1.2

    def test_without_mba_cores_are_halved(self):
        runner, scheduler = self._hot_runner(mba=False)
        runner.engine.run(until=600.0)
        assert scheduler.eliminator.halving_actions >= 1
        node = runner.cluster.nodes[0]
        assert node.share_of("heat").cpus < 12

    def test_disabled_eliminator_never_acts(self):
        cluster = Cluster(small_cluster(nodes=1))
        scheduler = CodaScheduler(
            CodaConfig(eliminator=EliminatorConfig(enabled=False))
        )
        runner = SimulationRunner(cluster, scheduler, sample_interval_s=600.0)
        runner.submit_at(0.0, _gpu("nlp", model="bat", iters=500))
        runner.submit_at(1.0, heat_job("heat", 1.0, threads=12, tenant_id=18))
        runner.engine.run(until=1200.0)
        assert scheduler.eliminator.throttle_actions == 0


class TestConfig:
    def test_defaults(self):
        config = CodaConfig()
        assert config.reserved_cores == 16
        assert config.profiling_step_s == 90.0
        assert config.eliminator.enabled

    def test_scheduler_name(self):
        assert CodaScheduler().name == "coda"

    def test_job_started_before_attach_raises(self):
        scheduler = CodaScheduler()
        with pytest.raises(RuntimeError):
            scheduler.job_started(_gpu("j"), [(0, 2, 1)], 0.0)
