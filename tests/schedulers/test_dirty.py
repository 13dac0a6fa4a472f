"""PassGate windows, ShareHeap/linear-scan equivalence, the TenantQueues
family (windows, depths, snapshots, picks), skip accounting, and the
empty-queue skip with its O(1) queue depths."""

import json
import random
from collections import deque

import pytest

from repro.checkpoint import restore_run, snapshot_run
from repro.cluster.cluster import Cluster
from repro.cluster.resources import ResourceVector
from repro.config import small_cluster
from repro.experiments.runner import SimulationRunner
from repro.experiments.scenarios import (
    Scenario,
    run_scenario,
    small_scenario,
)
from repro.parallel.spec import RunSpec, build_scheduler
from repro.perfmodel.stages import TrainSetup
from repro.profiling import Profiler
from repro.schedulers.base import (
    ShareHeap,
    TenantQueues,
    UsageLedger,
    depths_of,
)
from repro.schedulers.dirty import PassGate
from repro.workload.job import CpuJob, GpuJob
from repro.workload.tracegen import TraceConfig


class _FakeCluster:
    """Just enough of a Cluster for the gate: a freed-capacity counter."""

    def __init__(self):
        self.capacity_freed = 0


class TestPassGate:
    def test_starts_all_dirty(self):
        cluster = _FakeCluster()
        gate = PassGate(("a", "b"))
        assert gate.should_scan("a", cluster)
        assert gate.should_scan("b", cluster)
        assert not gate.can_skip_pass(cluster)

    def test_pass_done_arms_the_skip(self):
        cluster = _FakeCluster()
        gate = PassGate(("a", "b"))
        gate.pass_done(cluster)
        assert not gate.should_scan("a", cluster)
        assert gate.can_skip_pass(cluster)

    def test_mark_dirties_only_that_group(self):
        cluster = _FakeCluster()
        gate = PassGate(("a", "b"))
        gate.pass_done(cluster)
        gate.mark("a")
        assert gate.should_scan("a", cluster)
        assert not gate.should_scan("b", cluster)
        assert not gate.can_skip_pass(cluster)

    def test_freed_capacity_dirties_every_group(self):
        cluster = _FakeCluster()
        gate = PassGate(("a", "b"))
        gate.pass_done(cluster)
        cluster.capacity_freed += 1
        assert gate.should_scan("a", cluster)
        assert gate.should_scan("b", cluster)
        assert not gate.can_skip_pass(cluster)
        gate.pass_done(cluster)
        assert gate.can_skip_pass(cluster)

    def test_mark_all_forgets_the_freed_reading(self):
        cluster = _FakeCluster()
        gate = PassGate(("a",))
        gate.pass_done(cluster)
        gate.mark_all()
        assert gate.should_scan("a", cluster)
        assert not gate.can_skip_pass(cluster)

    def test_full_rescan_env_disables_the_gate(self, monkeypatch):
        monkeypatch.setenv("REPRO_REFERENCE", "1")
        cluster = _FakeCluster()
        gate = PassGate(("a",))
        gate.pass_done(cluster)
        assert not gate.enabled
        assert gate.should_scan("a", cluster)
        assert not gate.can_skip_pass(cluster)


#: The reference selection ShareHeap must reproduce exactly.
_linear_min = TenantQueues.linear_min


class TestShareHeapEquivalence:
    """Drive a heap and the linear scan through randomized pass cycles
    (submits, starts, finishes, blocked tenants) and assert they pick the
    same tenant at every single selection point."""

    TOTAL_CPUS = 64
    TOTAL_GPUS = 16

    def test_matches_linear_scan_across_randomized_passes(self):
        rng = random.Random(1234)
        ledger = UsageLedger()
        heap = ShareHeap(ledger)
        heap.configure(self.TOTAL_CPUS, self.TOTAL_GPUS)
        queues = {tenant_id: deque() for tenant_id in range(6)}
        running = []
        job_seq = 0

        heap.rebuild(queues)
        for _ in range(60):
            # Mutations between passes, maintaining the heap exactly the
            # way the DRF policy does.
            for _ in range(rng.randrange(4)):
                tenant_id = rng.randrange(6)
                job = (f"j{job_seq}", rng.randrange(1, 9), rng.randrange(3))
                job_seq += 1
                was_empty = not queues[tenant_id]
                queues[tenant_id].append(job)
                if was_empty:
                    heap.push(tenant_id)
            for _ in range(rng.randrange(3)):
                if not running:
                    break
                job_id, tenant_id = running.pop(rng.randrange(len(running)))
                footprint = ledger.finish(job_id)
                assert footprint is not None and footprint[0] == tenant_id
                if queues[tenant_id]:
                    heap.push(tenant_id)

            # One scheduling pass: repeatedly select, randomly either
            # "place" the head job or declare the tenant blocked.
            blocked = set()
            while True:
                entry = heap.pop_min(queues, blocked)
                reference = _linear_min(
                    ledger, queues, blocked, self.TOTAL_CPUS, self.TOTAL_GPUS
                )
                assert entry == reference
                if entry is None:
                    break
                _, tenant_id = entry
                if rng.random() < 0.5:
                    job_id, cpus, gpus = queues[tenant_id].popleft()
                    ledger.start(job_id, tenant_id, cpus, gpus)
                    running.append((job_id, tenant_id))
                    if queues[tenant_id]:
                        heap.push(tenant_id)
                else:
                    blocked.add(tenant_id)
                    heap.stash(entry)
            heap.flush_stash()


def _tenant_cpu_job(job_id, tenant, cores=4):
    return CpuJob(job_id=job_id, tenant_id=tenant, submit_time=0.0, cores=cores)


def _tenant_gpu_job(job_id, tenant, gpus=1):
    return GpuJob(
        job_id=job_id,
        tenant_id=tenant,
        submit_time=0.0,
        model_name="resnet50",
        setup=TrainSetup(1, gpus),
        requested_cpus=2,
        total_iterations=100,
    )


def _clean_family(window=1):
    """A family whose gate has just finished a pass (every group clean)."""
    cluster = _FakeCluster()
    gate = PassGate(("f",))
    family = TenantQueues("f", UsageLedger(), gate, [0, 0], window=window)
    gate.pass_done(cluster)
    return family, gate, cluster


class TestTenantQueues:
    """The one queue type behind DRF and the multi-array families."""

    TOTAL = ResourceVector(cpus=64, gpus=16)

    def test_head_only_window_marks_on_an_empty_queue_only(self):
        family, gate, cluster = _clean_family()
        family.submit(_tenant_cpu_job("a0", tenant=1))
        assert gate.should_scan("f", cluster)
        gate.pass_done(cluster)
        family.submit(_tenant_cpu_job("a1", tenant=1))
        assert not gate.should_scan("f", cluster)
        family.submit(_tenant_cpu_job("b0", tenant=2))
        assert gate.should_scan("f", cluster)

    def test_backfill_window_marks_until_it_is_full(self):
        family, gate, cluster = _clean_family(window=4)
        for index in range(4):
            family.submit(_tenant_gpu_job(f"g{index}", tenant=1))
            assert gate.should_scan("f", cluster)
            gate.pass_done(cluster)
        family.submit(_tenant_gpu_job("g4", tenant=1))
        assert not gate.should_scan("f", cluster)
        assert [job.job_id for job in family.window_of(1)] == [
            "g0", "g1", "g2", "g3"
        ]

    def test_head_requeue_always_marks(self):
        family, gate, cluster = _clean_family()
        for index in range(3):
            family.submit(_tenant_cpu_job(f"a{index}", tenant=1))
        gate.pass_done(cluster)
        family.requeue(_tenant_cpu_job("back", tenant=1))
        assert gate.should_scan("f", cluster)
        assert family.head(1).job_id == "back"

    def test_depths_follow_submit_take_requeue_and_restore(self):
        gate = PassGate(("a", "b"))
        depths = [0, 0]
        family = TenantQueues("a", UsageLedger(), gate, depths, window=4)
        sibling = TenantQueues("b", UsageLedger(), gate, depths)
        family.submit(_tenant_gpu_job("g0", tenant=1))
        family.submit(_tenant_gpu_job("g1", tenant=1))
        family.submit(_tenant_cpu_job("c0", tenant=2))
        sibling.submit(_tenant_cpu_job("s0", tenant=1))
        assert depths == [2, 2]
        taken = family.take(1, index=1)
        assert taken.job_id == "g1"
        assert depths == [1, 2]
        family.requeue(taken)
        assert depths == [2, 2]
        # A restore moves the shared counts by what the family drops and
        # what it loads; the sibling's share is untouched.
        jobs_by_id = {job.job_id: job for job in family.jobs()}
        family.restore({"1": ["g1"]}, jobs_by_id)
        assert depths == [1, 1]
        family.restore({"1": ["g1", "g0"], "2": ["c0"]}, jobs_by_id)
        assert depths == [2, 2]
        walked = depths_of(list(family.jobs()) + list(sibling.jobs()))
        assert tuple(depths) == walked

    def test_snapshot_restore_round_trip(self):
        family, _, _ = _clean_family()
        for job_id, tenant in (("a0", 3), ("b0", 1), ("a1", 3), ("b1", 1)):
            family.submit(_tenant_cpu_job(job_id, tenant=tenant))
        family.requeue(_tenant_cpu_job("front", tenant=1))
        state = json.loads(json.dumps(family.snapshot()))
        assert state == {"3": ["a0", "a1"], "1": ["front", "b0", "b1"]}
        jobs_by_id = {job.job_id: job for job in family.jobs()}
        restored, _, _ = _clean_family()
        restored.restore(state, jobs_by_id)
        assert restored.snapshot() == state
        assert [job.job_id for job in restored.jobs()] == [
            job.job_id for job in family.jobs()
        ]
        assert restored._depths == family._depths == [0, 5]

    @staticmethod
    def _pick_sequence(seed):
        """Randomized passes (submits, finishes, starts and blocked
        tenants) through one family; returns every tenant it picked."""
        rng = random.Random(seed)
        ledger = UsageLedger()
        family = TenantQueues("f", ledger, PassGate(("f",)), [0, 0])
        running, picks, seq = [], [], 0
        for _ in range(40):
            for _ in range(rng.randrange(4)):
                tenant = rng.randrange(5)
                cores = rng.randrange(1, 9)
                family.submit(_tenant_cpu_job(f"j{seq}", tenant, cores))
                seq += 1
            for _ in range(rng.randrange(3)):
                if running:
                    job = running.pop(rng.randrange(len(running)))
                    ledger.finish(job.job_id)
                    family.share_changed(job.tenant_id)
            for tenant_id in family.drf_order(TestTenantQueues.TOTAL):
                picks.append(tenant_id)
                if rng.random() < 0.5:
                    family.block(tenant_id)
                    continue
                job = family.take(tenant_id)
                ledger.start(job.job_id, tenant_id, job.cores, 0)
                family.share_changed(tenant_id)
                running.append(job)
        return picks

    def test_gate_enabled_and_disabled_pick_the_same_sequence(
        self, monkeypatch
    ):
        incremental = self._pick_sequence(7)
        monkeypatch.setenv("REPRO_REFERENCE", "1")
        reference = self._pick_sequence(7)
        assert len(incremental) > 50
        assert incremental == reference


@pytest.mark.parametrize("policy", ("fifo", "drf", "coda"))
def test_skipped_passes_book_under_schedule_skip(policy):
    """A skipped pass must not inflate ``schedule-pass``: the profiler
    observer books it, time and count, under ``schedule-skip``.

    Needs a congested cluster — on an idle one every pass is triggered by
    a submit-to-empty-queue or a completion, so nothing is skippable."""
    scenario = Scenario(
        cluster_config=small_cluster(nodes=4),
        trace_config=TraceConfig(
            duration_days=0.05,
            gpu_jobs_per_day=1200.0,
            cpu_jobs_per_day=300.0,
            seed=0,
        ),
        drain_s=3600.0,
    )
    profiler = Profiler()
    result = run_scenario(
        scenario,
        build_scheduler(policy),
        sample_interval_s=3600.0,
        profiler=profiler,
    )
    assert result.events_fired == sum(profiler.counters.values())
    assert profiler.counters["schedule-skip"] > 0
    assert profiler.counters["schedule-pass"] > 0
    assert set(profiler.timers) == set(profiler.counters)


def _cpu_job(job_id, submit=0.0):
    return CpuJob(
        job_id=job_id,
        tenant_id=2,
        submit_time=submit,
        cores=4,
        duration_s=50.0,
        bw_demand_gbps=1.0,
    )


@pytest.mark.parametrize("policy", ("fifo", "drf", "coda"))
def test_empty_queues_skip_the_pass_freed_capacity_requests(policy):
    """A completion frees capacity and requests a pass; with every queue
    empty that pass has nothing to decide, so it books as a skip even
    though the gate alone would rescan."""
    runner = SimulationRunner(
        Cluster(small_cluster(nodes=2)),
        build_scheduler(policy),
        sample_interval_s=1e9,
    )
    profiler = Profiler()
    profiler.attach(runner.engine)
    runner.submit_at(0.0, _cpu_job("c"))
    runner.engine.run(until=100.0)
    scheduler = runner.scheduler
    assert runner.collector.records["c"].finish_time == 50.0
    assert scheduler.queue_depths() == (0, 0)
    assert scheduler._gate.fresh_capacity(runner.cluster)
    assert scheduler.can_skip_pass(runner.cluster)
    assert profiler.counters["schedule-pass"] == 1  # the arrival's pass
    assert profiler.counters["schedule-skip"] == 1  # the completion's


@pytest.mark.parametrize("policy", ("fifo", "drf", "coda"))
def test_reference_mode_never_skips_empty_queues(monkeypatch, policy):
    monkeypatch.setenv("REPRO_REFERENCE", "1")
    runner = SimulationRunner(
        Cluster(small_cluster(nodes=2)),
        build_scheduler(policy),
        sample_interval_s=1e9,
    )
    runner.submit_at(0.0, _cpu_job("c"))
    runner.engine.run(until=100.0)
    assert runner.scheduler.queue_depths() == (0, 0)
    assert not runner.scheduler.can_skip_pass(runner.cluster)


@pytest.mark.parametrize("policy", ("fifo", "drf", "coda"))
def test_queue_depths_survive_checkpoint_restore(policy):
    """Counts are recomputed from the restored queues, so a resumed run
    keeps answering depth queries (and empty-queue skips) exactly."""
    scenario = small_scenario(duration_days=0.05, seed=0, nodes=2)
    spec = RunSpec(scenario=scenario, scheduler=policy)
    runner = spec.build_runner()
    runner.enable_sampling()
    deepest = (0, 0)
    while runner.engine.fired < 400 and sum(deepest) == 0:
        runner.engine.step()
        deepest = runner.scheduler.queue_depths()
    assert sum(deepest) > 0, "the run never queued a job"
    restored = restore_run(
        spec, json.loads(json.dumps(snapshot_run(runner, spec)))
    )
    scheduler = restored.scheduler
    assert scheduler.queue_depths() == deepest
    for _ in range(300):
        assert scheduler.queue_depths() == depths_of(scheduler.pending_jobs())
        if not restored.engine.pending:
            break
        restored.engine.step()
