"""PassGate windows, ShareHeap/linear-scan equivalence, skip accounting."""

import random
from collections import deque

import pytest

from repro.config import small_cluster
from repro.experiments.scenarios import (
    Scenario,
    default_schedulers,
    run_scenario,
)
from repro.profiling import Profiler
from repro.schedulers.base import ShareHeap, UsageLedger
from repro.schedulers.dirty import PassGate
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


def _linear_min(ledger, queues, blocked, total_cpus, total_gpus):
    """The reference selection ShareHeap must reproduce exactly."""
    best = None
    for tenant_id, queue in queues.items():
        if not queue or tenant_id in blocked:
            continue
        key = (
            ledger.dominant_share(tenant_id, total_cpus, total_gpus),
            tenant_id,
        )
        if best is None or key < best:
            best = key
    return best


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
        default_schedulers()[policy](),
        sample_interval_s=3600.0,
        profiler=profiler,
    )
    assert result.events_fired == sum(profiler.counters.values())
    assert profiler.counters["schedule-skip"] > 0
    assert profiler.counters["schedule-pass"] > 0
    assert set(profiler.timers) == set(profiler.counters)
