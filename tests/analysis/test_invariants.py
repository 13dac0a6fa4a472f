"""Invariant auditor: clean runs stay clean, corrupted state is caught,
and the audited simulation is indistinguishable from an unaudited one.
"""

import pytest

from repro.analysis.invariants import InvariantAuditor, InvariantViolationError
from repro.cluster.cluster import Cluster
from repro.config import ClusterConfig, NodeConfig, small_cluster
from repro.core.coda import CodaConfig, CodaScheduler
from repro.experiments.runner import SimulationRunner
from repro.experiments.scenarios import run_scenario, small_scenario
from repro.faults import FaultConfig
from repro.health import RestartPolicy
from repro.metrics.audit import AuditStats
from repro.parallel.spec import build_scheduler
from repro.schedulers.drf import DrfScheduler
from repro.schedulers.fifo import FifoScheduler
from repro.perfmodel.stages import TrainSetup
from repro.sim.engine import Engine
from repro.workload.job import CpuJob, GpuJob

SHORT = {"duration_days": 0.05, "seed": 0}


def attached(cluster: Cluster, **kwargs) -> InvariantAuditor:
    auditor = InvariantAuditor(60.0, **kwargs)
    auditor.attach_engine(Engine(), cluster)
    return auditor


def _codes(auditor: InvariantAuditor) -> set:
    """The codes of every violation ``auditor`` has recorded."""
    return {violation.code for violation in auditor.stats.violations}


class TestCleanRuns:
    def test_seeded_run_has_zero_violations(self):
        auditor = InvariantAuditor(120.0)
        result = run_scenario(
            small_scenario(**SHORT), FifoScheduler(), auditor=auditor
        )
        assert auditor.stats.checks_run > 1
        assert auditor.stats.assertions_evaluated > 0
        assert auditor.stats.ok
        # violations land in the run's collector, FaultStats-style.
        assert result.collector.audit is auditor.stats
        assert result.collector.audit.violation_count == 0

    def test_drf_run_audits_dominant_shares(self):
        auditor = InvariantAuditor(120.0)
        run_scenario(small_scenario(**SHORT), DrfScheduler(), auditor=auditor)
        assert auditor.stats.ok

    def test_clean_under_fault_injection(self):
        scenario = small_scenario(**SHORT).with_faults(
            FaultConfig(seed=0, node_mtbf_s=2 * 3600.0)
        )
        auditor = InvariantAuditor(120.0, strict=True)
        result = run_scenario(scenario, FifoScheduler(), auditor=auditor)
        assert result.collector.faults.node_failures > 0
        assert auditor.stats.ok

    def test_report_mentions_counts(self):
        auditor = InvariantAuditor(120.0)
        run_scenario(small_scenario(**SHORT), FifoScheduler(), auditor=auditor)
        report = auditor.report()
        assert "0 violation(s)" in report


class TestByteIdentical:
    def test_audited_run_matches_unaudited(self):
        """The auditor observes; it must never perturb the simulation."""
        plain = run_scenario(small_scenario(**SHORT), FifoScheduler())
        audited = run_scenario(
            small_scenario(**SHORT),
            FifoScheduler(),
            auditor=InvariantAuditor(60.0, strict=True),
        )
        assert audited.events_fired == plain.events_fired
        assert audited.finished_gpu_jobs == plain.finished_gpu_jobs
        assert audited.finished_cpu_jobs == plain.finished_cpu_jobs
        assert audited.preemptions == plain.preemptions

        def fingerprint(result):
            return sorted(
                (r.job_id, r.first_start, r.finish_time, r.final_cpus)
                for r in result.collector.records.values()
            )

        assert fingerprint(audited) == fingerprint(plain)


class TestCorruptionDetection:
    def test_oversubscribed_core_counter(self):
        cluster = Cluster(small_cluster(nodes=2))
        cluster.allocate("j1", [(0, 4, 1)])
        auditor = attached(cluster)
        assert auditor.check_now() == 0
        # Simulate a lost release: the counter claims more cores than the
        # shares account for.
        cluster.node(0)._used_cpus += 3
        assert auditor.check_now() > 0
        codes = _codes(auditor)
        assert "IV001" in codes  # share sum != used counter
        assert "IV002" in codes  # ledger disagrees with node usage

    @pytest.mark.parametrize("dimension", ("cpus", "gpus"))
    def test_drifted_usage_total(self, dimension):
        cluster = Cluster(small_cluster(nodes=2))
        cluster.allocate("j1", [(0, 4, 1)])
        auditor = attached(cluster)
        # A maintained total that missed a mutation: the node walk and
        # the allocation ledger both disagree with it.
        setattr(cluster._usage, dimension, getattr(cluster._usage, dimension) + 1)
        auditor.check_now()
        assert _codes(auditor) == {"IV002"}

    def test_negative_core_counter(self):
        cluster = Cluster(small_cluster(nodes=1))
        auditor = attached(cluster)
        cluster.node(0)._used_cpus = -1
        auditor.check_now()
        assert "IV001" in _codes(auditor)

    def test_orphaned_resident(self):
        cluster = Cluster(small_cluster(nodes=1))
        # Allocate straight on the node, bypassing the cluster ledger.
        cluster.node(0).allocate("ghost", 2, 0)
        auditor = attached(cluster)
        auditor.check_now()
        assert "IV004" in _codes(auditor)

    def test_double_owned_gpu(self):
        cluster = Cluster(small_cluster(nodes=1))
        cluster.allocate("j1", [(0, 2, 1)])
        node = cluster.node(0)
        share = node.share_of("j1")
        # Corrupt the GPU device table: reassign j1's GPU to another job.
        node.gpus[share.gpu_ids[0]].owner = "thief"
        auditor = attached(cluster)
        auditor.check_now()
        assert "IV001" in _codes(auditor)

    def test_strict_mode_raises(self):
        cluster = Cluster(small_cluster(nodes=1))
        auditor = attached(cluster, strict=True)
        cluster.node(0)._used_cpus = -5
        with pytest.raises(InvariantViolationError) as exc_info:
            auditor.check_now()
        assert exc_info.value.violation.code == "IV001"

    def test_corruption_detected_during_live_run(self):
        """A mid-run corruption surfaces on the next audit sweep."""
        scenario = small_scenario(**SHORT)
        auditor = InvariantAuditor(60.0)
        result = run_scenario(scenario, FifoScheduler(), auditor=auditor)
        assert auditor.stats.ok
        # Now poison the final state and re-sweep.
        auditor._cluster.node(0)._used_cpus += 1
        auditor.check_now()
        assert not auditor.stats.ok
        assert not result.collector.audit.ok

    @pytest.mark.parametrize("kind", ("gpu", "cpu"))
    def test_timer_armed_past_completion_time(self, kind):
        """A completion timer armed after its record's authoritative
        completion time would finish the job late: IV009."""
        runner = SimulationRunner(
            Cluster(small_cluster(nodes=1)),
            FifoScheduler(),
            sample_interval_s=1e9,
            auditor=InvariantAuditor(60.0),
        )
        if kind == "gpu":
            job = GpuJob(
                job_id="j",
                tenant_id=1,
                submit_time=0.0,
                model_name="resnet50",
                setup=TrainSetup(1, 1),
                requested_cpus=3,
                total_iterations=10**6,
            )
        else:
            job = CpuJob(
                job_id="j",
                tenant_id=1,
                submit_time=0.0,
                cores=4,
                duration_s=1000.0,
                bw_demand_gbps=1.0,
            )
        runner.submit_at(0.0, job)
        runner.engine.run(until=10.0)
        auditor = runner.auditor
        assert auditor.check_now() == 0
        record = runner.progress.running["j"]
        record.completion.cancel()
        record.completion = runner.engine.schedule(
            record.completion_time + 1.0, lambda: None
        )
        assert auditor.check_now() == 1
        assert _codes(auditor) == {"IV009"}


class TestPricedSpeeds:
    """IV014: every running job's speed is what its inputs give now."""

    @staticmethod
    def _runner(job):
        runner = SimulationRunner(
            Cluster(small_cluster(nodes=1)),
            FifoScheduler(),
            sample_interval_s=1e9,
            auditor=InvariantAuditor(60.0),
        )
        runner.submit_at(0.0, job)
        runner.engine.run(until=10.0)
        assert runner.auditor.check_now() == 0
        return runner

    @staticmethod
    def _trainer():
        return GpuJob(
            job_id="g",
            tenant_id=1,
            submit_time=0.0,
            model_name="resnet50",
            setup=TrainSetup(1, 1),
            requested_cpus=3,
            total_iterations=10**6,
        )

    @staticmethod
    def _cpu_job(bw=1.0):
        return CpuJob(
            job_id="c",
            tenant_id=1,
            submit_time=0.0,
            cores=4,
            duration_s=1000.0,
            bw_demand_gbps=bw,
        )

    @pytest.mark.parametrize("field", ("speed", "utilization"))
    def test_stale_gpu_price_flagged(self, field):
        runner = self._runner(self._trainer())
        record = runner.progress.running["g"]
        setattr(record, field, getattr(record, field) * 0.5)
        assert runner.auditor.check_now() == 1
        assert _codes(runner.auditor) == {"IV014"}

    def test_stale_cpu_speed_flagged(self):
        runner = self._runner(self._cpu_job())
        runner.progress.running["c"].cores = 2  # a resize nobody repriced
        assert runner.auditor.check_now() == 1
        assert _codes(runner.auditor) == {"IV014"}

    def test_halving_keeps_prices_fresh(self):
        runner = self._runner(self._cpu_job())
        runner.halve_cpu_job_cores("c")
        assert runner.auditor.check_now() == 0

    def test_throttle_and_release_keep_prices_fresh(self):
        runner = self._runner(self._cpu_job(bw=60.0))
        node_id = runner.cluster.allocation_of("c").node_ids[0]
        assert runner.throttle_cpu_job("c", node_id)
        assert runner.progress.running["c"].speed < 1.0
        assert runner.auditor.check_now() == 0
        runner.release_cpu_throttle("c", node_id)
        assert runner.auditor.check_now() == 0


class TestBorrowTable:
    """IV015: the borrow index mirrors the borrow map and each
    borrower's kind, and no borrower is a tracked CPU job."""

    @staticmethod
    def _runner():
        """A CPU job too big for the CPU array borrows reserved cores."""
        cluster = Cluster(
            ClusterConfig(node_groups=((1, NodeConfig(cores=8, gpus=4)),))
        )
        runner = SimulationRunner(
            cluster,
            CodaScheduler(CodaConfig(reserved_cores=6)),
            sample_interval_s=1e9,
            auditor=InvariantAuditor(60.0),
        )
        runner.submit_at(
            0.0,
            CpuJob(
                job_id="batch",
                tenant_id=9,
                submit_time=0.0,
                cores=7,
                duration_s=2000.0,
            ),
        )
        runner.engine.run(until=1.0)
        assert runner.scheduler._borrowed == {"batch": 0}
        assert runner.auditor.check_now() == 0
        return runner

    @pytest.mark.parametrize("corruption", ("dropped", "gpu flag"))
    def test_corrupted_index_flagged(self, corruption):
        runner = self._runner()
        index = runner.scheduler._borrow_index
        if corruption == "dropped":
            del index[0]
        else:
            index[0]["batch"] = True
        assert runner.auditor.check_now() == 1
        assert _codes(runner.auditor) == {"IV015"}

    def test_tracked_borrower_flagged(self):
        runner = self._runner()
        scheduler = runner.scheduler
        # Track the borrower and count it in the census too, so only the
        # overlap itself is wrong (IV010 stays quiet).
        scheduler._tracked["batch"] = [0, 7]
        scheduler._cpu_used[0] = 7
        assert runner.auditor.check_now() == 1
        assert _codes(runner.auditor) == {"IV015"}


class TestWiring:
    def test_double_attach_rejected(self):
        cluster = Cluster(small_cluster(nodes=1))
        auditor = attached(cluster)
        with pytest.raises(RuntimeError):
            auditor.attach_engine(Engine(), cluster)

    def test_check_now_requires_attachment(self):
        with pytest.raises(RuntimeError):
            InvariantAuditor().check_now()

    def test_detach_is_idempotent(self):
        cluster = Cluster(small_cluster(nodes=1))
        auditor = attached(cluster)
        auditor.detach()
        auditor.detach()

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            InvariantAuditor(0.0)

    def test_external_stats_sink(self):
        sink = AuditStats()
        cluster = Cluster(small_cluster(nodes=1))
        auditor = InvariantAuditor(60.0, stats=sink)
        auditor.attach_engine(Engine(), cluster)
        auditor.check_now()
        assert sink.checks_run == 1


class TestClockMonotonicity:
    def test_backwards_event_flagged(self):
        cluster = Cluster(small_cluster(nodes=1))
        engine = Engine()
        auditor = InvariantAuditor(1e9)  # sweeps quiet; isolate IV003
        auditor.attach_engine(engine, cluster)
        engine.schedule(10.0, lambda: None, tag="later")
        engine.schedule(20.0, lambda: None, tag="latest")
        engine.run()
        assert auditor.stats.ok
        # Forge an out-of-order firing by replaying an old-timestamped
        # event through the observer.
        from repro.sim.events import Event

        auditor._on_event(Event(time=5.0, priority=0, seq=99, action=lambda: None))
        assert "IV003" in _codes(auditor)


class TestFairShareResidents:
    """IV017: only queued, running and backing-off jobs keep their tenant
    charged in a DRF ledger or hold a borrow entry."""

    @staticmethod
    def _faulted_run(policy):
        scenario = small_scenario(duration_days=0.1, seed=2, nodes=4).with_faults(
            FaultConfig(seed=3, node_mtbf_s=900.0, node_mttr_s=600.0)
        )
        scheduler = build_scheduler(
            policy, restart_policy=RestartPolicy(max_restarts=1)
        )
        auditor = InvariantAuditor(60.0)
        run_scenario(scenario, scheduler, auditor=auditor)
        return scheduler, auditor

    @pytest.mark.parametrize("policy", ("drf", "coda"))
    def test_dead_jobs_give_back_their_share(self, policy):
        scheduler, auditor = self._faulted_run(policy)
        dead = {entry.job_id for entry in scheduler.dead_jobs}
        assert dead
        charged = set(getattr(scheduler, "_borrowed", ()))
        for family in scheduler.families:
            charged.update(family._ledger._job_footprint)
        assert not dead & charged
        assert "IV017" not in _codes(auditor)

    @pytest.mark.parametrize("stray", ("footprint", "borrow"))
    def test_stray_entry_flagged(self, stray):
        runner = TestBorrowTable._runner()
        scheduler = runner.scheduler
        if stray == "footprint":
            scheduler._cpu_ledger.start("ghost", 99, 1, 0)
        else:
            scheduler._borrow("ghost", 0, False)
        assert runner.auditor.check_now() == 1
        assert _codes(runner.auditor) == {"IV017"}
