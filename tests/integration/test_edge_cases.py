"""Degenerate and boundary scenarios every policy must survive."""

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.resources import ResourceVector
from repro.config import ClusterConfig, NodeConfig, small_cluster
from repro.core.coda import CodaScheduler
from repro.experiments.runner import SimulationRunner
from repro.perfmodel.stages import TrainSetup
from repro.schedulers.drf import DrfScheduler
from repro.schedulers.fifo import FifoScheduler
from repro.workload.job import CpuJob, GpuJob
from repro.workload.tracegen import TraceConfig, generate_trace

ALL_POLICIES = (FifoScheduler, DrfScheduler, CodaScheduler)


def _gpu(job_id, gpus=1, nodes=1, iters=20, submit=0.0):
    return GpuJob(
        job_id=job_id,
        tenant_id=1,
        submit_time=submit,
        model_name="resnet50",
        setup=TrainSetup(nodes, gpus),
        requested_cpus=2,
        total_iterations=iters,
    )


class TestEmptyAndTinyTraces:
    @pytest.mark.parametrize("factory", ALL_POLICIES)
    def test_empty_trace_runs_clean(self, factory):
        runner = SimulationRunner(
            Cluster(small_cluster(nodes=1)), factory(), sample_interval_s=100.0
        )
        result = runner.run(until=1000.0)
        assert result.finished_gpu_jobs == 0
        assert len(result.collector.gpu_active_rate) == 11

    @pytest.mark.parametrize("factory", ALL_POLICIES)
    def test_single_job(self, factory):
        runner = SimulationRunner(
            Cluster(small_cluster(nodes=1)), factory(), sample_interval_s=100.0
        )
        runner.submit_at(0.0, _gpu("only", iters=5))
        result = runner.run(until=3600.0)
        assert result.finished_gpu_jobs == 1
        assert runner.cluster.used == ResourceVector()


class TestOneSidedWorkloads:
    @pytest.mark.parametrize("factory", ALL_POLICIES)
    def test_cpu_only_trace(self, factory):
        trace = generate_trace(
            TraceConfig(
                duration_days=0.05,
                gpu_jobs_per_day=0.0,
                cpu_jobs_per_day=600.0,
                seed=4,
            )
        )
        runner = SimulationRunner(
            Cluster(small_cluster(nodes=2)), factory(), trace
        )
        result = runner.run(until=trace.config.duration_s + 7200.0)
        assert result.finished_gpu_jobs == 0
        assert result.finished_cpu_jobs > 0

    @pytest.mark.parametrize("factory", ALL_POLICIES)
    def test_gpu_only_trace(self, factory):
        trace = generate_trace(
            TraceConfig(
                duration_days=0.05,
                gpu_jobs_per_day=200.0,
                cpu_jobs_per_day=0.0,
                seed=4,
            )
        )
        runner = SimulationRunner(
            Cluster(small_cluster(nodes=4)), factory(), trace
        )
        result = runner.run(until=trace.config.duration_s + 12 * 3600.0)
        assert result.finished_cpu_jobs == 0
        assert result.finished_gpu_jobs > 0


class TestOverSizedJobs:
    @pytest.mark.parametrize("factory", ALL_POLICIES)
    def test_job_too_big_for_cluster_queues_forever(self, factory):
        """An 8-GPU-per-node job on a 4-GPU cluster must neither crash nor
        block the jobs behind a *different* queue."""
        runner = SimulationRunner(
            Cluster(small_cluster(nodes=2)), factory(), sample_interval_s=100.0
        )
        runner.submit_at(0.0, _gpu("whale", gpus=8))
        runner.submit_at(
            1.0,
            CpuJob(job_id="ok", tenant_id=2, submit_time=1.0, cores=2,
                   duration_s=10.0),
        )
        result = runner.run(until=3600.0)
        assert result.collector.records["whale"].first_start is None
        assert result.collector.records["ok"].finish_time is not None

    def test_coda_slims_a_core_hungry_job_onto_a_tight_cluster(self):
        """CODA's ladder places an AlexNet 1N4G job even when cores are
        scarce, instead of queueing it forever."""
        cluster = Cluster(
            ClusterConfig(node_groups=((1, NodeConfig(cores=10, gpus=4)),))
        )
        runner = SimulationRunner(cluster, CodaScheduler(), sample_interval_s=100.0)
        runner.submit_at(
            0.0,
            GpuJob(
                job_id="hungry",
                tenant_id=1,
                submit_time=0.0,
                model_name="alexnet",
                setup=TrainSetup(1, 4),
                requested_cpus=2,
                total_iterations=20,
            ),
        )
        result = runner.run(until=7200.0)
        record = result.collector.records["hungry"]
        assert record.first_start is not None
        assert record.final_cpus <= 10


class TestSimultaneousArrivals:
    @pytest.mark.parametrize("factory", ALL_POLICIES)
    def test_burst_at_the_same_instant_is_deterministic(self, factory):
        outcomes = []
        for _ in range(2):
            runner = SimulationRunner(
                Cluster(small_cluster(nodes=2)), factory(),
                sample_interval_s=100.0,
            )
            for index in range(20):
                runner.submit_at(5.0, _gpu(f"g{index}", iters=10))
            result = runner.run(until=3600.0)
            finish_times = tuple(
                (job_id, record.finish_time)
                for job_id, record in sorted(result.collector.records.items())
            )
            outcomes.append(finish_times)
        assert outcomes[0] == outcomes[1]
