"""Node quarantine, restart budgets, and the dead-job ledger, end to end.

The ISSUE acceptance criteria live here: a crash-looping node is
quarantined and hosts zero jobs for the whole window (IV007 enforced by a
strict auditor riding along), and a poison job lands in the dead-job
ledger once its restart budget runs out.
"""

import pytest

from repro.analysis.invariants import InvariantAuditor
from repro.cluster.cluster import Cluster
from repro.config import small_cluster
from repro.experiments.runner import SimulationRunner
from repro.health import RestartPolicy
from repro.health.tracker import NodeHealthState
from repro.perfmodel.stages import TrainSetup
from repro.schedulers.fifo import FifoScheduler
from repro.sim.events import EventPriority
from repro.workload.job import GpuJob


def _gpu(job_id, *, gpus=1, nodes=1, iters=100, cpus=3, tenant=1, submit=0.0):
    return GpuJob(
        job_id=job_id,
        tenant_id=tenant,
        submit_time=submit,
        model_name="resnet50",
        setup=TrainSetup(nodes, gpus),
        requested_cpus=cpus,
        total_iterations=iters,
        checkpoint_interval_iters=10,
    )


class TestRestartBudget:
    """Scheduler-level budget mechanics, driven by hand."""

    def _started(self, scheduler, cluster, now=0.0):
        for decision in scheduler.schedule(cluster, now):
            cluster.allocate(decision.job.job_id, list(decision.placements))
            scheduler.job_started(decision.job, list(decision.placements), now)

    def test_first_failure_requeues_immediately(self):
        from tests.core.fakes import FakeContext

        cluster = Cluster(small_cluster(nodes=2))
        scheduler = FifoScheduler(
            restart_policy=RestartPolicy(max_restarts=2, base_delay_s=100.0)
        )
        scheduler.attach(FakeContext(lambda j, c: 0.9, cluster=cluster))
        job = _gpu("j", iters=10_000)
        scheduler.submit(job, 0.0)
        self._started(scheduler, cluster)
        cluster.release("j")
        scheduler.job_failed(job, 1.0)
        assert [p.job_id for p in scheduler.pending_jobs()] == ["j"]
        assert scheduler.snapshot()["restart_counts"] == {"j": 1}

    def test_second_failure_is_delayed_then_requeued(self):
        from tests.core.fakes import FakeContext

        cluster = Cluster(small_cluster(nodes=2))
        context = FakeContext(lambda j, c: 0.9, cluster=cluster)
        scheduler = FifoScheduler(
            restart_policy=RestartPolicy(max_restarts=5, base_delay_s=100.0)
        )
        scheduler.attach(context)
        job = _gpu("j", iters=10_000)
        scheduler.submit(job, 0.0)
        self._started(scheduler, cluster)
        cluster.release("j")
        scheduler.job_failed(job, 1.0)  # immediate
        self._started(scheduler, cluster)
        cluster.release("j")
        scheduler.job_failed(job, 2.0)  # backed off 100 s
        assert scheduler.pending_jobs() == []
        assert any("requeue:j" == e[3] for e in context.events)
        context.fire_next()
        assert [p.job_id for p in scheduler.pending_jobs()] == ["j"]
        assert context.schedule_requests >= 1

    def test_exhausted_budget_moves_job_to_dead_ledger(self):
        from tests.core.fakes import FakeContext

        cluster = Cluster(small_cluster(nodes=2))
        scheduler = FifoScheduler(
            restart_policy=RestartPolicy(max_restarts=1, base_delay_s=0.0)
        )
        scheduler.attach(FakeContext(lambda j, c: 0.9, cluster=cluster))
        job = _gpu("j", iters=10_000)
        scheduler.submit(job, 0.0)
        self._started(scheduler, cluster)
        cluster.release("j")
        scheduler.job_failed(job, 1.0)  # first failure: within budget
        self._started(scheduler, cluster)
        cluster.release("j")
        scheduler.job_failed(job, 2.0)  # second: budget exhausted
        assert scheduler.pending_jobs() == []
        assert len(scheduler.dead_jobs) == 1
        dead = scheduler.dead_jobs[0]
        assert dead.job_id == "j"
        assert dead.failures == 2
        assert dead.reason == "restart budget exhausted"

    def test_without_context_delayed_requeue_degrades_to_immediate(self):
        cluster = Cluster(small_cluster(nodes=2))
        scheduler = FifoScheduler(
            restart_policy=RestartPolicy(max_restarts=5, base_delay_s=100.0)
        )
        job = _gpu("j", iters=10_000)
        scheduler.submit(job, 0.0)
        self._started(scheduler, cluster)
        cluster.release("j")
        scheduler.job_failed(job, 1.0)
        self._started(scheduler, cluster)
        cluster.release("j")
        scheduler.job_failed(job, 2.0)  # no context to defer through
        assert [p.job_id for p in scheduler.pending_jobs()] == ["j"]


class TestPoisonJobEndToEnd:
    def test_poison_job_lands_in_dead_ledger(self):
        scheduler = FifoScheduler(
            restart_policy=RestartPolicy(max_restarts=2, base_delay_s=5.0)
        )
        cluster = Cluster(small_cluster(nodes=2))
        runner = SimulationRunner(
            cluster, scheduler, sample_interval_s=50.0
        )
        runner.submit_at(0.0, _gpu("poison", iters=100_000))

        def sabotage() -> None:
            # Crash whatever node hosts the poison job, then bring the
            # node back so only the job — not the cluster — looks broken.
            if runner.cluster.has_allocation("poison"):
                node_id = runner.cluster.allocation_of("poison").node_ids[0]
                runner.fail_node(node_id)
                runner.engine.schedule(
                    runner.engine.now + 5.0,
                    lambda node_id=node_id: runner.recover_node(node_id),
                    priority=EventPriority.MONITOR,
                )
            runner.engine.schedule(
                runner.engine.now + 20.0, sabotage, priority=EventPriority.MONITOR
            )

        runner.engine.schedule(20.0, sabotage, priority=EventPriority.MONITOR)
        result = runner.run(until=500.0)
        assert len(scheduler.dead_jobs) == 1
        assert scheduler.dead_jobs[0].job_id == "poison"
        assert scheduler.dead_jobs[0].failures == 3
        assert result.dead_jobs == 1
        assert scheduler.pending_jobs() == []
        assert runner.collector.records["poison"].finish_time is None
        # Two crashes on one node and one on the other: nobody quarantined.
        assert result.quarantines == 0


class TestQuarantineEndToEnd:
    def test_crash_looping_node_is_quarantined_then_readmitted(self):
        cluster = Cluster(small_cluster(nodes=2))
        auditor = InvariantAuditor(interval_s=25.0, strict=True)
        scheduler = FifoScheduler()
        runner = SimulationRunner(
            cluster, scheduler, sample_interval_s=50.0, auditor=auditor
        )
        # Full-node GPU jobs arriving through the horizon keep queue
        # pressure up: any node the scheduler may use, it will use.
        for i in range(25):
            runner.submit_at(
                100.0 * i, _gpu(f"g{i}", gpus=4, iters=1_000_000, submit=100.0 * i)
            )
        # Crash-loop node 0: down at 100/200/300, back up 50 s later.
        for strike in range(3):
            when = 100.0 + 100.0 * strike
            runner.engine.schedule(
                when,
                lambda: runner.fail_node(0),
                priority=EventPriority.MONITOR,
            )
            runner.engine.schedule(
                when + 50.0,
                lambda: runner.recover_node(0),
                priority=EventPriority.MONITOR,
            )

        observations = {}

        def probe(when: float) -> None:
            observations[when] = (
                runner.health.state_of(0, runner.engine.now),
                sorted(runner.cluster.node(0).jobs_here()),
            )

        # Default base quarantine is 1800 s: the window is [300, 2100).
        for when in (500.0, 1500.0, 2050.0, 2200.0):
            runner.engine.schedule(
                when,
                lambda when=when: probe(when),
                priority=EventPriority.MONITOR,
            )
        result = runner.run(until=2500.0)
        # The third strike quarantined the node ...
        assert result.quarantines == 1
        assert runner.collector.faults.quarantines == 1
        # ... which hosted nothing for the whole window despite constant
        # queue pressure (the strict IV007 auditor swept every 25 s) ...
        for when in (500.0, 1500.0, 2050.0):
            state, residents = observations[when]
            assert state is NodeHealthState.QUARANTINED
            assert residents == []
        # ... and was re-used promptly after readmission.
        state, residents = observations[2200.0]
        assert state is NodeHealthState.PROBATION
        assert residents != []
        assert result.quarantine_s == pytest.approx(1800.0)
        assert auditor.stats.ok

    def test_suspect_node_avoided_while_alternatives_exist(self):
        cluster = Cluster(small_cluster(nodes=2))
        runner = SimulationRunner(
            cluster, FifoScheduler(), sample_interval_s=50.0
        )
        # One crash: node 0 is SUSPECT but still usable.
        runner.engine.schedule(
            10.0, lambda: runner.fail_node(0), priority=EventPriority.MONITOR
        )
        runner.engine.schedule(
            20.0, lambda: runner.recover_node(0), priority=EventPriority.MONITOR
        )
        runner.submit_at(30.0, _gpu("a", iters=1_000_000))
        runner.submit_at(31.0, _gpu("b", iters=1_000_000))
        runner.engine.run(until=100.0)
        # The first job avoids the suspect node; the second has no
        # healthy alternative with free GPUs left at equal fit, but both
        # fit on node 1, so both land there.
        assert list(runner.cluster.allocation_of("a").node_ids) == [1]
        assert list(runner.cluster.allocation_of("b").node_ids) == [1]
