"""Failure execution paths: crash, checkpoint-restart, GPU loss, stragglers.

The acceptance scenario lives in :class:`TestDeterministicCrashScenario`:
a node crash while a 4-GPU gang is running, replayed twice under the same
seeds, must reproduce restart counts, makespans, and queue contents
exactly.
"""

import pytest

from repro.cluster.cluster import Cluster
from repro.config import small_cluster
from repro.core.coda import CodaScheduler
from repro.experiments.runner import SimulationRunner
from repro.faults import FaultConfig, FaultInjector
from repro.perfmodel.stages import TrainSetup
from repro.schedulers.fifo import FifoScheduler
from repro.sim.events import EventPriority
from repro.workload.job import CpuJob, GpuJob
from tests.faults.test_injector import record_faults


def _gpu(job_id, *, gpus=1, nodes=1, iters=100, checkpoint=10, cpus=3,
         tenant=1, submit=0.0, model="resnet50"):
    return GpuJob(
        job_id=job_id,
        tenant_id=tenant,
        submit_time=submit,
        model_name=model,
        setup=TrainSetup(nodes, gpus),
        requested_cpus=cpus,
        total_iterations=iters,
        checkpoint_interval_iters=checkpoint,
    )


def _cpu(job_id, *, cores=4, duration=100.0, tenant=2, submit=0.0):
    return CpuJob(
        job_id=job_id,
        tenant_id=tenant,
        submit_time=submit,
        cores=cores,
        duration_s=duration,
    )


def _runner(nodes=2, scheduler=None, **kwargs):
    cluster = Cluster(small_cluster(nodes=nodes))
    return SimulationRunner(
        cluster, scheduler or FifoScheduler(), sample_interval_s=50.0, **kwargs
    )


class TestNodeCrash:
    def test_resident_job_is_killed_and_node_leaves_pool(self):
        runner = _runner()
        runner.submit_at(0.0, _gpu("j", iters=10_000))
        runner.engine.run(until=100.0)
        node_id = runner.cluster.allocation_of("j").node_ids[0]
        runner.fail_node(node_id)
        node = runner.cluster.node(node_id)
        assert not node.is_up
        assert node.free_cpus == 0 and node.free_gpu_ids == []
        assert not runner.cluster.has_allocation("j")
        assert runner.collector.faults.node_failures == 1
        assert runner.collector.faults.restarts == 1
        assert runner.collector.records["j"].failure_count == 1

    def test_crash_is_idempotent_and_recovery_reopens_node(self):
        runner = _runner()
        runner.engine.run(until=1.0)
        runner.fail_node(0)
        runner.fail_node(0)  # second crash of a down node is a no-op
        assert runner.collector.faults.node_failures == 1
        runner.recover_node(0)
        runner.recover_node(0)
        node = runner.cluster.node(0)
        assert node.is_up and node.free_cpus > 0

    def test_displaced_job_restarts_and_completes(self):
        runner = _runner()
        runner.submit_at(0.0, _gpu("j", iters=100))

        def crash():
            runner.fail_node(runner.cluster.allocation_of("j").node_ids[0])

        runner.engine.schedule(50.0, crash, priority=EventPriority.MONITOR)
        # Leave the crashed node down; the restart must land elsewhere.
        runner.engine.run()
        record = runner.collector.records["j"]
        assert record.finish_time is not None
        assert record.failure_count == 1

    def test_downtime_is_accounted(self):
        runner = _runner()
        runner.engine.run(until=10.0)
        runner.fail_node(0)
        runner.engine.run(until=110.0)
        runner.recover_node(0)
        faults = runner.collector.faults
        assert faults.node_downtime_s == pytest.approx(100.0)
        # An open outage counts through "now".
        runner.fail_node(1)
        runner.engine.run(until=160.0)
        assert faults.downtime_through(runner.engine.now) == pytest.approx(150.0)

    def test_multi_node_gang_dies_whole_and_frees_survivors(self):
        runner = _runner(nodes=2)
        runner.submit_at(0.0, _gpu("gang", gpus=2, nodes=2, iters=10_000))
        runner.engine.run(until=100.0)
        assert runner.cluster.allocation_of("gang").num_nodes == 2
        runner.fail_node(0)
        # One crash kills the whole gang and releases node 1's share.
        assert not runner.cluster.has_allocation("gang")
        assert runner.cluster.node(1).free_gpus == runner.cluster.node(1).total_gpus
        assert runner.collector.faults.restarts == 1


class TestCheckpointRestart:
    def _processing_time(self, *, checkpoint, crash_at=None):
        runner = _runner()
        runner.submit_at(0.0, _gpu("j", iters=100, checkpoint=checkpoint))
        if crash_at is not None:

            def crash():
                node_id = runner.cluster.allocation_of("j").node_ids[0]
                runner.fail_node(node_id)
                runner.engine.schedule(
                    crash_at + 10.0,
                    lambda: runner.recover_node(node_id),
                    priority=EventPriority.MONITOR,
                )

            runner.engine.schedule(
                crash_at, crash, priority=EventPriority.MONITOR
            )
        runner.engine.run()
        record = runner.collector.records["j"]
        assert record.finish_time is not None
        return runner, record

    def test_restart_resumes_from_checkpoint_boundary(self):
        _, clean = self._processing_time(checkpoint=10)
        runner, crashed = self._processing_time(checkpoint=10, crash_at=50.0)
        # Only the tail past the last checkpoint is re-run, so the crashed
        # job pays less than a from-scratch restart would.
        assert crashed.processing_time > clean.processing_time
        assert crashed.processing_time < 2 * clean.processing_time
        assert runner.collector.faults.lost_gpu_iterations > 0
        assert (
            runner.collector.faults.lost_gpu_iterations
            < runner.collector.records["j"].failure_count * 10 + 1e-9
        )

    def test_no_checkpointing_restarts_from_scratch(self):
        _, clean = self._processing_time(checkpoint=10)
        _, crashed = self._processing_time(checkpoint=0, crash_at=50.0)
        # All progress at the crash instant is lost: total processing is
        # the clean run plus everything done before the crash.
        assert crashed.processing_time > clean.processing_time

    def test_checkpoint_floor_arithmetic(self):
        job = _gpu("j", iters=100, checkpoint=30)
        assert job.checkpointed_iterations(0.0) == 0.0
        assert job.checkpointed_iterations(29.9) == 0.0
        assert job.checkpointed_iterations(30.0) == 30.0
        assert job.checkpointed_iterations(95.5) == 90.0
        assert _gpu("k", checkpoint=0).checkpointed_iterations(95.5) == 0.0


class TestGpuFailure:
    def test_owner_takes_failure_path_and_device_leaves_pool(self):
        runner = _runner()
        runner.submit_at(0.0, _gpu("j", iters=10_000))
        runner.engine.run(until=100.0)
        allocation = runner.cluster.allocation_of("j")
        node_id = allocation.node_ids[0]
        node = runner.cluster.node(node_id)
        gpu_id = next(gpu.gpu_id for gpu in node.gpus if gpu.owner == "j")
        total_free_before = len(node.free_gpu_ids)
        runner.fail_gpu(node_id, gpu_id)
        assert not runner.cluster.has_allocation("j")
        assert gpu_id not in node.free_gpu_ids
        # The failed device stays out even though its owner was evicted.
        assert len(node.free_gpu_ids) == total_free_before
        assert runner.collector.faults.gpu_failures == 1
        runner.repair_gpu(node_id, gpu_id)
        assert gpu_id in node.free_gpu_ids

    def test_unowned_gpu_failure_kills_nobody(self):
        runner = _runner()
        runner.engine.run(until=1.0)
        runner.fail_gpu(0, 0)
        runner.fail_gpu(0, 0)  # repeat is a no-op
        assert runner.collector.faults.gpu_failures == 1
        assert runner.collector.faults.restarts == 0

    def test_placement_avoids_failed_gpu(self):
        runner = _runner(nodes=1)
        runner.engine.run(until=1.0)
        runner.fail_gpu(0, 0)
        node = runner.cluster.node(0)
        runner.submit_at(2.0, _gpu("j", gpus=node.total_gpus - 1, iters=10))
        runner.engine.run(until=3.0)
        assert runner.cluster.has_allocation("j")
        assert node.gpus[0].owner is None


class TestStraggler:
    def test_straggler_stretches_then_heals(self):
        slow, clean = _runner(), _runner()
        for runner in (slow, clean):
            runner.submit_at(0.0, _cpu("c", duration=100.0))
        slow.engine.run(until=10.0)
        slow.apply_cpu_straggler("c", factor=0.25, duration_s=40.0)
        slow.engine.run()
        clean.engine.run()
        slow_time = slow.collector.records["c"].processing_time
        clean_time = clean.collector.records["c"].processing_time
        # 40 s at quarter speed does 10 s of work: 30 s of wall time lost.
        assert slow_time == pytest.approx(clean_time + 30.0)
        assert slow.collector.faults.stragglers == 1

    def test_straggler_on_missing_job_is_ignored(self):
        runner = _runner()
        runner.apply_cpu_straggler("ghost", factor=0.5, duration_s=10.0)
        assert runner.collector.faults.stragglers == 0

    def test_stale_heal_does_not_touch_new_incarnation(self):
        runner = _runner()
        runner.submit_at(0.0, _cpu("c", duration=1000.0))
        runner.engine.run(until=10.0)
        runner.apply_cpu_straggler("c", factor=0.25, duration_s=50.0)
        # The job dies and restarts before the straggler window closes.
        node_id = runner.cluster.allocation_of("c").node_ids[0]
        runner.fail_node(node_id)
        runner.recover_node(node_id)
        runner.engine.run(until=100.0)
        record = runner.progress.running["c"]
        assert record.straggle_factor == 1.0


class TestTelemetryOutage:
    def test_outage_blinds_monitor_then_lifts(self):
        runner = _runner()
        runner.engine.run(until=10.0)
        runner.begin_telemetry_outage(0, 50.0)
        monitor = runner.cluster.node(0).bandwidth
        assert monitor.observe(runner.engine.now) is None
        assert not monitor.telemetry_up(runner.engine.now)
        assert runner.collector.faults.telemetry_dropouts == 1
        runner.engine.run(until=70.0)
        assert monitor.telemetry_up(runner.engine.now)
        assert monitor.observe(runner.engine.now) is not None

    def test_overlapping_outages_extend_not_shorten(self):
        runner = _runner()
        runner.begin_telemetry_outage(0, 100.0)
        runner.begin_telemetry_outage(0, 10.0)
        monitor = runner.cluster.node(0).bandwidth
        assert not monitor.telemetry_up(50.0)
        assert monitor.telemetry_up(100.0)


class TestSchedulerRecovery:
    def test_failed_gpu_job_requeues_at_array_head(self):
        from tests.core.fakes import FakeContext

        cluster = Cluster(small_cluster(nodes=2))
        scheduler = CodaScheduler()
        context = FakeContext(lambda job_id, cores: 0.9, cluster=cluster)
        scheduler.attach(context)
        first = _gpu("first", iters=10_000)
        scheduler.submit(first, 0.0)
        for decision in scheduler.schedule(cluster, 0.0):
            cluster.allocate(decision.job.job_id, list(decision.placements))
            scheduler.job_started(decision.job, list(decision.placements), 0.0)
        # Park a sibling in the same (tenant, sub-array) queue, then fail
        # the running head: it must land *ahead* of the waiting sibling.
        scheduler.submit(_gpu("second", iters=10_000, submit=1.0), 1.0)
        cluster.release("first")
        scheduler.job_failed(first, 2.0)
        queue = scheduler._family_of(first)._queues[first.tenant_id]
        assert [job.job_id for job in queue] == ["first", "second"]
        assert "first" not in scheduler.allocator._active

    def test_failure_resets_allocator_tuning_memory(self):
        scheduler = CodaScheduler()
        runner = _runner(scheduler=scheduler)
        job = _gpu("j", iters=100_000)
        runner.submit_at(0.0, job)
        # Run long enough for the 90 s profiling phase to finish.
        runner.engine.run(until=600.0)
        allocator = scheduler.allocator
        assert "j" in allocator._known_cores
        node_id = runner.cluster.allocation_of("j").node_ids[0]
        runner.fail_node(node_id)
        assert "j" not in allocator._known_cores
        assert "j" not in allocator._active

    def test_failure_mid_profiling_aborts_session(self):
        scheduler = CodaScheduler()
        runner = _runner(scheduler=scheduler)
        runner.submit_at(0.0, _gpu("j", iters=100_000))
        runner.engine.run(until=30.0)  # inside the 90 s tuning window
        allocator = scheduler.allocator
        assert "j" in allocator._active
        node_id = runner.cluster.allocation_of("j").node_ids[0]
        runner.fail_node(node_id)
        assert "j" not in allocator._active


class TestDeterministicCrashScenario:
    """The ISSUE acceptance scenario, end to end."""

    def _one_run(self):
        scheduler = CodaScheduler()
        injector = FaultInjector(
            FaultConfig(seed=11, node_mtbf_s=1200.0, node_mttr_s=300.0)
        )
        cluster = Cluster(small_cluster(nodes=2))
        runner = SimulationRunner(
            cluster,
            scheduler,
            sample_interval_s=50.0,
            fault_injector=injector,
        )
        faults = record_faults(runner.engine)
        runner.submit_at(0.0, _gpu("gang", gpus=4, nodes=1, iters=2000))
        for index in range(3):
            runner.submit_at(
                0.0, _gpu(f"small{index}", iters=500, tenant=2)
            )
            runner.submit_at(0.0, _cpu(f"cpu{index}", tenant=3))
        result = runner.run(until=30_000.0)
        record = runner.collector.records["gang"]
        return {
            "restarts": runner.collector.faults.restarts,
            "node_failures": runner.collector.faults.node_failures,
            "downtime": result.node_downtime_s,
            "gang_failures": record.failure_count,
            "gang_makespan": record.finish_time,
            "faults": faults,
            "events": result.events_fired,
            "finished": result.finished_gpu_jobs + result.finished_cpu_jobs,
        }

    def test_two_seeded_runs_are_identical(self):
        first, second = self._one_run(), self._one_run()
        assert first == second
        # The scenario actually exercises the failure path ...
        assert first["node_failures"] > 0
        crashes = [tag for _, tag in first["faults"] if tag.startswith("fault:crash:")]
        assert len(crashes) == first["node_failures"]
        assert first["restarts"] >= first["gang_failures"] > 0
        # ... and every displaced job still completes.
        assert first["gang_makespan"] is not None
        assert first["finished"] == 7
