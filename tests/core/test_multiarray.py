"""Multi-array scheduler behaviour (Sec. V-C)."""

from typing import Dict
from weakref import WeakKeyDictionary

import pytest

from repro.cluster.cluster import Cluster
from repro.config import ClusterConfig, NodeConfig
from repro.core.allocator import AdaptiveCpuAllocator
from repro.core.multiarray import MultiArrayScheduler
from repro.perfmodel.stages import TrainSetup
from repro.schedulers.base import PreemptDecision, StartDecision
from repro.workload.job import CpuJob, GpuJob, Job


def _cluster() -> Cluster:
    """Nodes 0-1: 4 GPUs; nodes 2-3: 8 GPUs.  28 cores each."""
    return Cluster(
        ClusterConfig(
            node_groups=((2, NodeConfig(gpus=4)), (2, NodeConfig(gpus=8)))
        )
    )


def _scheduler() -> MultiArrayScheduler:
    return MultiArrayScheduler(
        AdaptiveCpuAllocator(), reserved_cores=16, four_gpu_fraction=0.5
    )


def _gpu(job_id, tenant=1, gpus=1, nodes=1, model="resnet50"):
    return GpuJob(
        job_id=job_id,
        tenant_id=tenant,
        submit_time=0.0,
        model_name=model,
        setup=TrainSetup(nodes, gpus),
        requested_cpus=2,
        total_iterations=100,
    )


def _cpu(job_id, tenant=18, cores=4):
    return CpuJob(job_id=job_id, tenant_id=tenant, submit_time=0.0, cores=cores)


#: The jobs each scheduler under test has started, by id: a preemption
#: hands the scheduler its job back, as the runner's table does.
_started: "WeakKeyDictionary[MultiArrayScheduler, Dict[str, Job]]" = (
    WeakKeyDictionary()
)


def apply(scheduler, cluster, decisions, now=0.0):
    """Execute decisions the way the runner would."""
    started = _started.setdefault(scheduler, {})
    jobs_started = []
    for decision in decisions:
        if isinstance(decision, StartDecision):
            cluster.allocate(
                decision.job.job_id, list(decision.placements)
            )
            scheduler.job_started(decision.job, list(decision.placements), now)
            started[decision.job.job_id] = decision.job
            jobs_started.append(decision.job)
        elif isinstance(decision, PreemptDecision):
            job = started.pop(decision.job_id)
            cluster.release(decision.job_id)
            scheduler.job_preempted(
                job, now, preserve_progress=decision.preserve_progress
            )
    return jobs_started


class TestSubArrayRouting:
    def test_small_job_goes_to_one_gpu_array(self):
        cluster, scheduler = _cluster(), _scheduler()
        scheduler.submit(_gpu("small", gpus=1), 0.0)
        decisions = scheduler.schedule(cluster, 0.0)
        assert decisions[0].placements[0][0] in {0, 1}

    def test_big_job_goes_to_four_gpu_array(self):
        cluster, scheduler = _cluster(), _scheduler()
        scheduler.submit(_gpu("big", gpus=4), 0.0)
        decisions = scheduler.schedule(cluster, 0.0)
        assert decisions[0].placements[0][0] in {2, 3}

    def test_multi_node_big_job_spans_big_array(self):
        cluster, scheduler = _cluster(), _scheduler()
        scheduler.submit(_gpu("big", gpus=2, nodes=2), 0.0)
        decisions = scheduler.schedule(cluster, 0.0)
        nodes = {p[0] for p in decisions[0].placements}
        assert nodes <= {2, 3}
        assert len(nodes) == 2

    def test_allocator_assigns_cores_not_request(self):
        cluster, scheduler = _cluster(), _scheduler()
        scheduler.submit(_gpu("j", model="bat"), 0.0)  # NLP default start 5
        decisions = scheduler.schedule(cluster, 0.0)
        assert decisions[0].placements[0][1] == 5

    def test_small_job_borrows_big_array_when_small_is_full(self):
        cluster, scheduler = _cluster(), _scheduler()
        cluster.allocate("wall0", [(0, 1, 4)])
        cluster.allocate("wall1", [(1, 1, 4)])
        scheduler.submit(_gpu("borrower", gpus=1), 0.0)
        decisions = scheduler.schedule(cluster, 0.0)
        apply(scheduler, cluster, decisions)
        node_id = scheduler._borrowed["borrower"]
        assert node_id in {2, 3}
        assert scheduler._borrow_index[node_id] == {"borrower": True}

    def test_big_job_overflows_to_one_gpu_array(self):
        cluster, scheduler = _cluster(), _scheduler()
        cluster.allocate("wall2", [(2, 1, 8)])
        cluster.allocate("wall3", [(3, 1, 8)])
        scheduler.submit(_gpu("big", gpus=4), 0.0)
        decisions = scheduler.schedule(cluster, 0.0)
        apply(scheduler, cluster, decisions)
        assert decisions[-1].placements[0][0] in {0, 1}
        assert "big" not in scheduler._borrowed  # big jobs never borrow


class TestMigration:
    def test_big_job_migrates_small_borrower(self):
        cluster, scheduler = _cluster(), _scheduler()
        # Fill the small array and both big nodes except node 3's GPUs,
        # then park a borrower on node 3.
        cluster.allocate("wall0", [(0, 1, 4)])
        cluster.allocate("wall1", [(1, 1, 4)])
        cluster.allocate("wall2", [(2, 1, 8)])
        cluster.allocate("big3", [(3, 1, 6)])
        scheduler.submit(_gpu("borrower", gpus=1), 0.0)
        apply(scheduler, cluster, scheduler.schedule(cluster, 0.0))
        assert scheduler._borrowed["borrower"] == 3
        # Free node 3's big job so 6 GPUs open; a 8-GPU... use 4-GPU job
        cluster.release("big3")
        cluster.release("wall2")
        cluster.allocate("wall2b", [(2, 1, 8)])
        # Now node 3 has 7 free GPUs + borrower holding 1. An 8-GPU job
        # fits only if the borrower is migrated away.
        scheduler.submit(_gpu("claimer", gpus=8), 1.0)
        decisions = scheduler.schedule(cluster, 1.0)
        kinds = [type(d).__name__ for d in decisions]
        assert "PreemptDecision" in kinds
        preempt = next(d for d in decisions if isinstance(d, PreemptDecision))
        assert preempt.job_id == "borrower"
        assert preempt.preserve_progress  # migration, not abort
        apply(scheduler, cluster, decisions)
        assert cluster.has_allocation("claimer")
        # The migrated borrower is back at its queue head.
        assert scheduler.pending_jobs()[0].job_id == "borrower"


class TestCpuArray:
    def test_cpu_job_lands_in_unreserved_capacity(self):
        cluster, scheduler = _cluster(), _scheduler()
        scheduler.submit(_cpu("c1", cores=8), 0.0)
        decisions = scheduler.schedule(cluster, 0.0)
        assert isinstance(decisions[0], StartDecision)

    def test_cpu_array_capacity_is_respected(self):
        """With 16 of 28 cores reserved, only 12 per node are CPU-array;
        a fourth 12-core job must wait while GPU jobs are queued."""
        cluster, scheduler = _cluster(), _scheduler()
        # Keep the GPU queue non-empty so borrowing is off: a job that can
        # never fit (8 GPUs on... all 8-GPU nodes blocked).
        cluster.allocate("blocker", [(2, 1, 1), (3, 1, 1)])
        scheduler.submit(_gpu("stuck", gpus=8), 0.0)
        for index in range(5):
            scheduler.submit(_cpu(f"c{index}", cores=12), 0.0)
        decisions = scheduler.schedule(cluster, 0.0)
        starts = [d for d in decisions if isinstance(d, StartDecision)]
        cpu_starts = [d for d in starts if d.job.job_id.startswith("c")]
        assert len(cpu_starts) == 4  # one 12-core slot per node

    def test_cpu_borrows_reserved_cores_when_gpu_queue_idle(self):
        cluster, scheduler = _cluster(), _scheduler()
        for index in range(5):
            scheduler.submit(_cpu(f"c{index}", cores=12), 0.0)
        decisions = scheduler.schedule(cluster, 0.0)
        apply(scheduler, cluster, decisions)
        starts = [d for d in decisions if isinstance(d, StartDecision)]
        assert len(starts) == 5
        assert len(scheduler._borrowed) == 1
        (borrowers,) = scheduler._borrow_index.values()
        assert borrowers == {next(iter(scheduler._borrowed)): False}

    def test_gpu_job_aborts_cpu_borrowers(self):
        cluster, scheduler = _cluster(), _scheduler()
        # Fill every node's cores with borrowing CPU jobs.
        for index in range(8):
            scheduler.submit(_cpu(f"c{index}", cores=14), 0.0)
        apply(scheduler, cluster, scheduler.schedule(cluster, 0.0))
        assert scheduler._borrowed
        scheduler.submit(_gpu("train", gpus=1, model="alexnet"), 1.0)
        decisions = scheduler.schedule(cluster, 1.0)
        preempts = [d for d in decisions if isinstance(d, PreemptDecision)]
        assert preempts
        assert all(not p.preserve_progress for p in preempts)  # abort
        apply(scheduler, cluster, decisions)
        assert cluster.has_allocation("train")

    def test_aborted_borrower_requeues_at_head(self):
        cluster, scheduler = _cluster(), _scheduler()
        for index in range(8):
            scheduler.submit(_cpu(f"c{index}", cores=14), 0.0)
        apply(scheduler, cluster, scheduler.schedule(cluster, 0.0))
        borrower = next(iter(scheduler._borrowed))
        scheduler.submit(_gpu("train", gpus=1, model="alexnet"), 1.0)
        decisions = scheduler.schedule(cluster, 1.0)
        apply(scheduler, cluster, decisions)
        pending_cpu = [
            j.job_id for j in scheduler.pending_jobs() if isinstance(j, CpuJob)
        ]
        assert borrower in pending_cpu


class TestFairnessAndBackfill:
    def test_drf_alternates_tenants_in_gpu_array(self):
        cluster, scheduler = _cluster(), _scheduler()
        for index in range(3):
            scheduler.submit(_gpu(f"a{index}", tenant=1), 0.0)
            scheduler.submit(_gpu(f"b{index}", tenant=2), 0.0)
        decisions = scheduler.schedule(cluster, 0.0)
        tenants = [d.job.tenant_id for d in decisions[:4]]
        assert tenants == [1, 2, 1, 2]

    def test_blocked_big_head_does_not_block_small_jobs(self):
        cluster, scheduler = _cluster(), _scheduler()
        cluster.allocate("blocker", [(2, 1, 1), (3, 1, 1)])
        scheduler.submit(_gpu("whale", tenant=1, gpus=8), 0.0)
        scheduler.submit(_gpu("minnow", tenant=1, gpus=1), 1.0)
        decisions = scheduler.schedule(cluster, 1.0)
        started = [d.job.job_id for d in decisions if isinstance(d, StartDecision)]
        assert "minnow" in started

    def test_backfill_within_subarray_queue(self):
        cluster, scheduler = _cluster(), _scheduler()
        # Both 8-GPU nodes are partially occupied, so an 8-GPU gang can
        # never form, but a 4-GPU sibling still fits.
        cluster.allocate("blocker", [(2, 1, 5), (3, 1, 1)])
        scheduler.submit(_gpu("first", tenant=1, gpus=8), 0.0)
        scheduler.submit(_gpu("second", tenant=1, gpus=4), 1.0)
        decisions = scheduler.schedule(cluster, 1.0)
        started = [d.job.job_id for d in decisions if isinstance(d, StartDecision)]
        assert "second" in started
        assert "first" not in started

    def test_preempted_gpu_job_requeues_in_matching_subarray(self):
        scheduler = _scheduler()
        big = _gpu("big", gpus=4)
        scheduler.job_preempted(big, 0.0, preserve_progress=True)
        assert scheduler._gpu_big.head(1).job_id == "big"


class TestSlimming:
    def test_core_ladder_halves_down_to_gpu_floor(self):
        job = _gpu("j", gpus=2)
        ladder = MultiArrayScheduler._core_ladder(job, 16)
        assert ladder == [16, 8, 4, 2]

    def test_core_ladder_trivial_when_at_floor(self):
        job = _gpu("j", gpus=2)
        assert MultiArrayScheduler._core_ladder(job, 2) == [2]

    def test_tight_node_gets_slim_placement(self):
        cluster, scheduler = _cluster(), _scheduler()
        # Leave only 3 free cores on each node that has GPUs free.
        cluster.allocate("hog0", [(0, 25, 0)])
        cluster.allocate("hog1", [(1, 25, 0)])
        cluster.allocate("hog2", [(2, 25, 0)])
        cluster.allocate("hog3", [(3, 25, 0)])
        scheduler.submit(_gpu("j", model="alexnet"), 0.0)  # wants 8 by default
        decisions = scheduler.schedule(cluster, 0.0)
        assert decisions
        assert decisions[0].placements[0][1] <= 3


class TestLifecycleBookkeeping:
    def test_finish_clears_all_state(self):
        cluster, scheduler = _cluster(), _scheduler()
        job = _gpu("j")
        scheduler.submit(job, 0.0)
        apply(scheduler, cluster, scheduler.schedule(cluster, 0.0))
        cluster.release("j")
        scheduler.job_finished(job, 5.0)
        assert "j" not in scheduler._gpu_ledger.snapshot()
        assert scheduler._gpu_ledger.usage_of(1).gpus == 0

    def test_rejects_unknown_job_type(self):
        with pytest.raises(TypeError):
            _scheduler().submit(object(), 0.0)

    def test_pending_jobs_spans_all_queues(self):
        scheduler = _scheduler()
        scheduler.submit(_gpu("g1", gpus=1), 0.0)
        scheduler.submit(_gpu("g4", gpus=4), 0.0)
        scheduler.submit(_cpu("c1"), 0.0)
        assert {j.job_id for j in scheduler.pending_jobs()} == {"g1", "g4", "c1"}


class TestBorrowerAbortRecovery:
    """Aborted CPU borrowers re-enter at the array head and rerun whole
    (the abort path sets ``preserve_progress=False``)."""

    def test_aborted_borrower_lands_at_queue_head(self):
        cluster, scheduler = _cluster(), _scheduler()
        for index in range(8):
            scheduler.submit(_cpu(f"c{index}", cores=14), 0.0)
        apply(scheduler, cluster, scheduler.schedule(cluster, 0.0))
        borrower = next(iter(scheduler._borrowed))
        # A same-tenant newcomer queued *before* the abort must end up
        # behind the re-queued borrower, not ahead of it.
        scheduler.submit(_cpu("late", cores=14), 1.0)
        scheduler.submit(_gpu("train", gpus=1, model="alexnet"), 1.0)
        apply(scheduler, cluster, scheduler.schedule(cluster, 1.0))
        queue = scheduler._cpu._queues[18]
        assert queue[0].job_id == borrower
        assert [j.job_id for j in queue if j.job_id == "late"] == ["late"]

    def test_aborted_borrower_reruns_to_completion(self):
        from repro.cluster.cluster import Cluster as _Cluster
        from repro.experiments.runner import SimulationRunner
        from repro.workload.job import CpuJob as _CpuJob

        cluster = _Cluster(
            ClusterConfig(
                node_groups=((2, NodeConfig(gpus=4)), (2, NodeConfig(gpus=8)))
            )
        )
        scheduler = _scheduler()
        runner = SimulationRunner(cluster, scheduler, sample_interval_s=50.0)
        for index in range(8):
            runner.submit_at(
                0.0,
                _CpuJob(
                    job_id=f"c{index}",
                    tenant_id=18,
                    submit_time=0.0,
                    cores=14,
                    duration_s=300.0,
                ),
            )
        runner.engine.run(until=1.0)
        assert scheduler._borrowed
        borrower = next(iter(scheduler._borrowed))
        started_once = runner.collector.records[borrower].start_count
        assert started_once == 1
        gpu = _gpu("train", gpus=1, model="alexnet")
        runner.submit_at(2.0, gpu)
        runner.engine.run()
        record = runner.collector.records[borrower]
        # Aborted (progress dropped), re-queued, restarted, and finished.
        assert record.preempt_count >= 1
        assert record.start_count >= 2
        assert record.finish_time is not None
        assert all(
            runner.collector.records[f"c{i}"].finish_time is not None
            for i in range(8)
        )
