"""Simulation-runner mechanics: progress, contention, control surface."""

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.resources import ResourceVector
from repro.config import small_cluster
from repro.experiments.runner import SimulationRunner
from repro.perfmodel.catalog import get_model
from repro.perfmodel.speed import iteration_time
from repro.perfmodel.stages import TrainSetup
from repro.schedulers.fifo import FifoScheduler
from repro.workload.heat import heat_job
from repro.workload.job import CpuJob, GpuJob


def _gpu(job_id, model="resnet50", cpus=3, gpus=1, nodes=1, iters=100, submit=0.0):
    return GpuJob(
        job_id=job_id,
        tenant_id=1,
        submit_time=submit,
        model_name=model,
        setup=TrainSetup(nodes, gpus),
        requested_cpus=cpus,
        total_iterations=iters,
    )


def _cpu(job_id, cores=4, duration=100.0, bw=1.0, heat=False, submit=0.0):
    return CpuJob(
        job_id=job_id,
        tenant_id=2,
        submit_time=submit,
        cores=cores,
        duration_s=duration,
        bw_demand_gbps=bw,
        is_heat=heat,
    )


def _runner(nodes=2):
    cluster = Cluster(small_cluster(nodes=nodes))
    return SimulationRunner(cluster, FifoScheduler(), sample_interval_s=50.0)


class TestGpuJobExecution:
    def test_runtime_matches_performance_model(self):
        runner = _runner()
        job = _gpu("j", cpus=3, iters=100)
        runner.submit_at(0.0, job)
        runner.engine.run()
        profile = get_model("resnet50")
        expected = 100 * iteration_time(profile, TrainSetup(1, 1), 3).total_s
        record = runner.collector.records["j"]
        assert record.processing_time == pytest.approx(expected, rel=1e-6)

    def test_fewer_cores_means_longer_runtime(self):
        slow_runner, fast_runner = _runner(), _runner()
        slow_runner.submit_at(0.0, _gpu("s", cpus=1, iters=100))
        fast_runner.submit_at(0.0, _gpu("f", cpus=3, iters=100))
        slow_runner.engine.run()
        fast_runner.engine.run()
        assert (
            slow_runner.collector.records["s"].processing_time
            > fast_runner.collector.records["f"].processing_time
        )

    def test_multi_node_job_spans_nodes(self):
        runner = _runner()
        runner.submit_at(0.0, _gpu("j", gpus=2, nodes=2, iters=10))
        runner.engine.run(until=1.0)
        allocation = runner.cluster.allocation_of("j")
        assert allocation.num_nodes == 2

    def test_gpu_utilization_published_to_devices(self):
        runner = _runner()
        runner.submit_at(0.0, _gpu("j", cpus=3, iters=1000))
        runner.engine.run(until=10.0)
        node = runner.cluster.nodes[runner.cluster.allocation_of("j").node_ids[0]]
        owned = [gpu.utilization for gpu in node.gpus if not gpu.is_free]
        assert owned == pytest.approx([runner.gpu_job_utilization("j")])

    def test_resources_released_on_completion(self):
        runner = _runner()
        runner.submit_at(0.0, _gpu("j", iters=5))
        runner.engine.run()
        assert runner.cluster.used == ResourceVector()


class TestCpuJobExecution:
    def test_runs_for_its_duration(self):
        runner = _runner()
        runner.submit_at(0.0, _cpu("c", duration=123.0))
        runner.engine.run()
        record = runner.collector.records["c"]
        assert record.processing_time == pytest.approx(123.0)

    def test_queued_when_full(self):
        runner = _runner(nodes=1)
        runner.submit_at(0.0, _cpu("a", cores=28, duration=100.0))
        runner.submit_at(1.0, _cpu("b", cores=28, duration=50.0))
        runner.engine.run()
        record = runner.collector.records["b"]
        assert record.first_start == pytest.approx(100.0)


class TestContentionCoupling:
    def test_heat_job_slows_colocated_nlp_trainer(self):
        """Starting a bandwidth hog mid-flight stretches the trainer's
        completion — the progress-based execution at work."""
        quiet, loud = _runner(nodes=1), _runner(nodes=1)
        for runner in (quiet, loud):
            runner.submit_at(0.0, _gpu("nlp", model="bat", cpus=5, iters=100))
        loud.submit_at(
            10.0, heat_job("heat", 10.0, threads=14, duration_s=100000.0)
        )
        quiet.engine.run()
        loud.engine.run()
        assert (
            loud.collector.records["nlp"].processing_time
            > 1.3 * quiet.collector.records["nlp"].processing_time
        )

    def test_heat_finishing_restores_trainer_speed(self):
        runner = _runner(nodes=1)
        runner.submit_at(0.0, _gpu("nlp", model="bat", cpus=5, iters=200))
        runner.submit_at(0.0, _cpu("heat", cores=14, duration=50.0, bw=110.0, heat=True))
        runner.engine.run(until=10.0)
        slowed = runner.progress.running["nlp"].speed
        runner.engine.run(until=100.0)
        restored = runner.progress.running["nlp"].speed
        assert restored > slowed

    def test_throttled_heat_job_runs_longer(self):
        runner = _runner(nodes=1)
        runner.submit_at(0.0, _cpu("heat", cores=8, duration=100.0, bw=100.0, heat=True))
        runner.engine.run(until=1.0)
        node_id = runner.cluster.allocation_of("heat").node_ids[0]
        assert runner.throttle_cpu_job("heat", node_id)
        runner.engine.run()
        record = runner.collector.records["heat"]
        assert record.processing_time > 100.0


class TestControlSurface:
    def test_resize_changes_speed(self):
        runner = _runner()
        runner.submit_at(0.0, _gpu("j", cpus=1, iters=10000))
        runner.engine.run(until=1.0)
        before = runner.progress.running["j"].speed
        assert runner.resize_gpu_job_cores("j", 3)
        after = runner.progress.running["j"].speed
        assert after > before

    def test_resize_beyond_node_fails_cleanly(self):
        runner = _runner(nodes=1)
        runner.submit_at(0.0, _gpu("j", cpus=4, iters=10000))
        runner.submit_at(0.0, _cpu("hog", cores=24, duration=10000.0))
        runner.engine.run(until=1.0)
        assert not runner.resize_gpu_job_cores("j", 8)
        assert runner.cluster.allocation_of("j").shares[0].cpus == 4

    def test_resize_unknown_job_returns_false(self):
        runner = _runner()
        assert not runner.resize_gpu_job_cores("ghost", 4)

    def test_halve_cpu_job_cores(self):
        runner = _runner()
        runner.submit_at(0.0, _cpu("c", cores=8, duration=1000.0))
        runner.engine.run(until=1.0)
        runner.halve_cpu_job_cores("c")
        assert runner.cluster.allocation_of("c").shares[0].cpus == 4

    def test_gpu_job_expected_utilization_ignores_contention(self):
        runner = _runner(nodes=1)
        runner.submit_at(0.0, _gpu("nlp", model="bat", cpus=5, iters=10000))
        runner.submit_at(1.0, heat_job("heat", 1.0, threads=14, duration_s=10000.0))
        runner.engine.run(until=5.0)
        assert runner.gpu_job_expected_utilization("nlp") > (
            runner.gpu_job_utilization("nlp")
        )

    def test_preempt_preserves_progress_when_asked(self):
        runner = _runner(nodes=1)
        job = _gpu("j", cpus=3, iters=1000)
        runner.submit_at(0.0, job)
        runner.engine.run(until=500.0)
        runner.preempt_job("j", preserve_progress=True, reason="test")
        runner.engine.run()  # restarts immediately (the cluster is empty)
        record = runner.collector.records["j"]
        assert record.preempt_count == 1
        profile = get_model("resnet50")
        iter_s = iteration_time(profile, TrainSetup(1, 1), 3).total_s
        # Progress preserved and an instant restart: the migration costs
        # no wall time at all.
        assert record.finish_time == pytest.approx(1000 * iter_s, rel=1e-6)

    def test_preempt_without_preserve_restarts_from_zero(self):
        runner = _runner(nodes=1)
        runner.submit_at(0.0, _cpu("c", cores=4, duration=100.0))
        runner.engine.run(until=50.0)
        runner.preempt_job("c", preserve_progress=False, reason="test")
        runner.engine.run()
        record = runner.collector.records["c"]
        assert record.finish_time == pytest.approx(150.0)


class TestSampling:
    def test_samples_collected_on_interval(self):
        runner = _runner()
        runner.submit_at(0.0, _cpu("c", duration=200.0))
        runner.run(until=200.0)
        assert len(runner.collector.gpu_active_rate) == 5

    def test_run_result_summary(self):
        runner = _runner()
        runner.submit_at(0.0, _gpu("g", iters=5))
        runner.submit_at(0.0, _cpu("c", duration=10.0))
        result = runner.run(until=1000.0)
        assert result.finished_gpu_jobs == 1
        assert result.finished_cpu_jobs == 1
        assert result.scheduler_name == "fifo"
        assert result.events_fired > 0

    def test_invalid_sample_interval(self):
        with pytest.raises(ValueError):
            SimulationRunner(
                Cluster(small_cluster(nodes=1)),
                FifoScheduler(),
                sample_interval_s=0.0,
            )
