"""FIFO policy semantics."""

import pytest

from repro.perfmodel.stages import TrainSetup
from repro.schedulers.base import StartDecision
from repro.schedulers.fifo import FifoScheduler
from repro.workload.job import CpuJob, GpuJob


def _gpu(job_id, gpus=1, cpus=2, nodes=1):
    return GpuJob(
        job_id=job_id,
        tenant_id=1,
        submit_time=0.0,
        model_name="resnet50",
        setup=TrainSetup(nodes, gpus),
        requested_cpus=cpus,
        total_iterations=10,
    )


def _cpu(job_id, cores=2):
    return CpuJob(job_id=job_id, tenant_id=2, submit_time=0.0, cores=cores)


class TestOrdering:
    def test_starts_in_submission_order(self, tiny_cluster):
        scheduler = FifoScheduler()
        scheduler.submit(_gpu("a"), 0.0)
        scheduler.submit(_gpu("b"), 1.0)
        decisions = scheduler.schedule(tiny_cluster, 2.0)
        assert [d.job.job_id for d in decisions] == ["a", "b"]

    def test_all_decisions_are_starts(self, tiny_cluster):
        scheduler = FifoScheduler()
        scheduler.submit(_gpu("a"), 0.0)
        decisions = scheduler.schedule(tiny_cluster, 0.0)
        assert all(isinstance(d, StartDecision) for d in decisions)

    def test_gpu_head_of_line_blocks_gpu_queue(self, tiny_cluster):
        """The first unplaceable GPU job blocks later GPU jobs (no
        backfill — the Sec. III status quo)."""
        scheduler = FifoScheduler()
        scheduler.submit(_gpu("big", gpus=4, nodes=2), 0.0)
        scheduler.submit(_gpu("small"), 1.0)
        tiny_cluster.allocate("blocker", [(0, 1, 1)])  # 2N8G now impossible
        decisions = scheduler.schedule(tiny_cluster, 2.0)
        assert decisions == []

    def test_cpu_jobs_bypass_blocked_gpu_head(self, tiny_cluster):
        scheduler = FifoScheduler()
        scheduler.submit(_gpu("big", gpus=4, nodes=2), 0.0)
        scheduler.submit(_cpu("little"), 1.0)
        tiny_cluster.allocate("blocker", [(0, 1, 1)])
        decisions = scheduler.schedule(tiny_cluster, 2.0)
        assert [d.job.job_id for d in decisions] == ["little"]

    def test_cpu_head_blocks_cpu_queue(self, tiny_cluster):
        scheduler = FifoScheduler()
        tiny_cluster.allocate("hog", [(0, 28, 0), (1, 27, 0)])
        scheduler.submit(_cpu("wide", cores=8), 0.0)
        scheduler.submit(_cpu("narrow", cores=1), 1.0)
        decisions = scheduler.schedule(tiny_cluster, 2.0)
        assert decisions == []

    def test_decisions_are_consistent_within_a_pass(self, tiny_cluster):
        """A pass must not hand the same GPU to two jobs."""
        scheduler = FifoScheduler()
        for index in range(10):
            scheduler.submit(_gpu(f"g{index}"), float(index))
        decisions = scheduler.schedule(tiny_cluster, 10.0)
        assert len(decisions) == 8  # 8 GPUs total
        for decision in decisions:
            tiny_cluster.allocate(
                decision.job.job_id, list(decision.placements)
            )  # raises if inconsistent

    def test_uses_requested_cpus(self, tiny_cluster):
        scheduler = FifoScheduler()
        scheduler.submit(_gpu("a", cpus=7), 0.0)
        decisions = scheduler.schedule(tiny_cluster, 0.0)
        assert decisions[0].placements[0][1] == 7


class TestLifecycle:
    def test_preempted_job_returns_to_head(self, tiny_cluster):
        scheduler = FifoScheduler()
        scheduler.submit(_gpu("b"), 1.0)
        scheduler.job_preempted(_gpu("a"), 2.0, preserve_progress=False)
        assert [j.job_id for j in scheduler.pending_jobs()] == ["a", "b"]

    def test_pending_jobs_counts_both_kinds(self):
        scheduler = FifoScheduler()
        scheduler.submit(_gpu("g"), 0.0)
        scheduler.submit(_cpu("c"), 0.0)
        assert sum(scheduler.queue_depths()) == 2

    def test_rejects_unknown_job_type(self):
        scheduler = FifoScheduler()
        with pytest.raises(TypeError):
            scheduler.submit(object(), 0.0)

    def test_job_finished_is_noop(self):
        FifoScheduler().job_finished(_gpu("a"), 0.0)
