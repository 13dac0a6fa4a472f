"""Audit-log capture and persistence."""

import pytest

from repro.cluster.cluster import Cluster
from repro.config import ClusterConfig, NodeConfig, small_cluster
from repro.core.coda import CodaConfig, CodaScheduler
from repro.core.eliminator import EliminatorConfig
from repro.experiments.auditlog import AuditLog
from repro.experiments.runner import SimulationRunner
from repro.experiments.scenarios import small_scenario
from repro.faults import FaultConfig
from repro.perfmodel.stages import TrainSetup
from repro.schedulers.fifo import FifoScheduler
from repro.workload.heat import heat_job
from repro.workload.job import GpuJob


def _gpu(job_id="g1", iters=50, model="resnet50"):
    return GpuJob(
        job_id=job_id,
        tenant_id=1,
        submit_time=0.0,
        model_name=model,
        setup=TrainSetup(1, 1),
        requested_cpus=3,
        total_iterations=iters,
    )


class TestLifecycleCapture:
    def test_full_lifecycle_is_logged(self):
        log = AuditLog()
        runner = SimulationRunner(
            Cluster(small_cluster(nodes=1)), FifoScheduler(),
            sample_interval_s=600.0, audit=log,
        )
        runner.submit_at(0.0, _gpu(iters=5))
        runner.engine.run()
        assert log.timeline("g1") == ["submitted", "started", "finished"]
        finish = log.last("g1")
        assert finish.event == "finished"
        assert finish.detail["queueing_s"] == 0.0
        assert finish.detail["cores_per_node"] == 3

    def test_coda_tuning_shows_as_resizes(self):
        log = AuditLog()
        runner = SimulationRunner(
            Cluster(small_cluster(nodes=1)), CodaScheduler(),
            sample_interval_s=600.0, audit=log,
        )
        runner.submit_at(0.0, _gpu("j", iters=2000, model="alexnet"))
        runner.engine.run(until=900.0)
        resizes = [r for r in log.of_job("j") if r.event == "resized"]
        assert resizes
        assert resizes[-1].detail["cores_per_node"] == 8

    def test_throttle_is_logged_with_level(self):
        log = AuditLog()
        cluster = Cluster(
            ClusterConfig(
                node_groups=((1, NodeConfig(gpus=4, mem_bandwidth_gbps=110.0)),)
            )
        )
        scheduler = CodaScheduler(
            CodaConfig(eliminator=EliminatorConfig(monitor_interval_s=30.0))
        )
        runner = SimulationRunner(
            cluster, scheduler, sample_interval_s=600.0, audit=log
        )
        runner.submit_at(0.0, _gpu("nlp", iters=500, model="bat"))
        runner.submit_at(1.0, heat_job("heat", 1.0, threads=12, tenant_id=18))
        runner.engine.run(until=120.0)
        throttles = log.of_event("throttled")
        assert throttles
        assert throttles[0].job_id == "heat"
        assert throttles[0].detail["level"] < 1.0

    def test_faulted_run_logs_failures_and_stragglers(self, tmp_path):
        scenario = small_scenario(duration_days=0.2, nodes=6).with_faults(
            FaultConfig(seed=7, node_mtbf_s=7200.0, straggler_interval_s=1800.0)
        )
        log = AuditLog()
        runner = SimulationRunner(
            scenario.build_cluster(),
            FifoScheduler(),
            scenario.build_trace(),
            fault_injector=scenario.build_fault_injector(),
            audit=log,
        )
        runner.run(until=scenario.horizon_s)
        failed, slowed = log.of_event("failed"), log.of_event("straggler")
        assert failed and slowed
        assert failed[0].detail["reason"]
        assert 0.0 < slowed[0].detail["factor"] < 1.0
        path = tmp_path / "audit.jsonl"
        log.save(path)
        loaded = AuditLog.load(path)
        assert list(loaded) == list(log)

    def test_no_audit_means_no_overhead_path(self):
        runner = SimulationRunner(
            Cluster(small_cluster(nodes=1)), FifoScheduler(),
            sample_interval_s=600.0,
        )
        runner.submit_at(0.0, _gpu(iters=5))
        runner.engine.run()  # must not raise with audit=None


class TestQueriesAndPersistence:
    def _sample_log(self):
        log = AuditLog()
        log.record(0.0, "submitted", "a", 1, "gpu")
        log.record(1.0, "started", "a", 1, "gpu", cores_per_node=4)
        log.record(2.0, "submitted", "b", 2, "cpu")
        log.record(9.0, "finished", "a", 1, "gpu", queueing_s=1.0)
        return log

    def test_of_event_and_tenant(self):
        log = self._sample_log()
        assert len(log.of_event("submitted")) == 2
        assert [r.job_id for r in log if r.tenant_id == 2] == ["b"]
        assert len(log) == 4

    def test_unknown_event_rejected(self):
        log = AuditLog()
        with pytest.raises(ValueError):
            log.record(0.0, "exploded", "a", 1, "gpu")
        with pytest.raises(ValueError):
            log.of_event("exploded")

    def test_round_trip(self, tmp_path):
        log = self._sample_log()
        path = tmp_path / "audit.jsonl"
        log.save(path)
        loaded = AuditLog.load(path)
        assert len(loaded) == len(log)
        assert loaded.timeline("a") == log.timeline("a")
        assert loaded.last("a").detail["queueing_s"] == 1.0

    def test_last_of_unknown_job_is_none(self):
        assert AuditLog().last("ghost") is None
