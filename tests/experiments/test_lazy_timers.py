"""Unit tests for the lazy completion-timer engine and the reprice memo.

The parity suites (tests/schedulers/test_*_parity.py) prove the lazy
runner equals ``REPRO_REFERENCE=1`` over whole simulations; these
tests pin the individual mechanisms — stale fire + re-arm, earlier-move
cancel + re-arm, the run-scoped ``_speed_memo``, change-driven
repricing, and the activity-indexed monitor surface — with
hand-computable numbers.
"""

import pytest

from repro.cluster.cluster import Cluster
from repro.config import small_cluster
from repro.core.coda import CodaScheduler
from repro.experiments.progress import _RunningCpu, _RunningGpu
from repro.experiments.runner import SimulationRunner
from repro.perfmodel.speed import iteration_time
from repro.perfmodel.stages import TrainSetup
from repro.profiling import Profiler
from repro.schedulers.fifo import FifoScheduler
from repro.workload.job import CpuJob, GpuJob


def _gpu(job_id, cpus=3, iters=100, submit=0.0):
    return GpuJob(
        job_id=job_id,
        tenant_id=1,
        submit_time=submit,
        model_name="resnet50",
        setup=TrainSetup(1, 1),
        requested_cpus=cpus,
        total_iterations=iters,
    )


def _cpu(job_id, cores=4, duration=100.0, submit=0.0, bw=1.0):
    return CpuJob(
        job_id=job_id,
        tenant_id=2,
        submit_time=submit,
        cores=cores,
        duration_s=duration,
        bw_demand_gbps=bw,
    )


def _runner(nodes=2):
    cluster = Cluster(small_cluster(nodes=nodes))
    return SimulationRunner(cluster, FifoScheduler(), sample_interval_s=1e9)


class TestLazyCompletionTimers:
    """One uncontended CPU job (speed exactly 1.0) slowed by stragglers:
    every timestamp below is an exact float."""

    def _straggled_runner(self, heal_after_s):
        runner = _runner()
        runner.submit_at(0.0, _cpu("c", duration=100.0))
        runner.engine.run(until=10.0)
        # Slow to 0.25x at t=10: completion moves 100 -> 10 + 90/0.25.
        runner.apply_cpu_straggler(
            "c", factor=0.25, duration_s=heal_after_s
        )
        return runner

    def test_later_moving_completion_fires_stale_and_rearms(self):
        runner = self._straggled_runner(heal_after_s=1e6)
        record = runner.progress.running["c"]
        # The old timer (armed at t=100) is deliberately left in place.
        assert record.completion_time == 370.0
        assert record.completion.time == 100.0
        runner.engine.run(until=120.0)
        # It fired stale at t=100 and re-armed at the authoritative time.
        assert runner.progress.stale_fires == 1
        assert "c" in runner.progress.running
        assert record.completion.time == 370.0
        runner.engine.run(until=500.0)
        assert runner.collector.records["c"].finish_time == 370.0
        assert runner.progress.stale_fires == 1

    def test_earlier_moving_completion_cancels_and_rearms(self):
        runner = self._straggled_runner(heal_after_s=140.0)
        runner.engine.run(until=120.0)  # past the stale fire at t=100
        record = runner.progress.running["c"]
        assert record.completion.time == 370.0
        # Heal at t=150: work = 10 + 0.25*140 = 45, so the completion
        # moves earlier (150 + 55 = 205 < 370) and must re-arm eagerly.
        runner.engine.run(until=160.0)
        assert record.completion_time == 205.0
        assert record.completion.time == 205.0
        runner.engine.run(until=500.0)
        assert runner.collector.records["c"].finish_time == 205.0
        assert runner.progress.stale_fires == 1

    def test_stale_fires_book_under_their_own_category(self):
        runner = self._straggled_runner(heal_after_s=1e6)
        profiler = Profiler()
        profiler.attach(runner.engine)
        runner.engine.run(until=500.0)
        # The stale fire at t=100 books under its own category; only the
        # real completion at t=370 books under its tag's, ``cpu-done``.
        # The pass the completion requests finds every queue empty, so
        # it books as a skip.
        assert profiler.counters == {
            "completion-stale": 1,
            "cpu-done": 1,
            "schedule-skip": 1,
        }
        assert "completion-stale" in profiler.timers
        assert runner.collector.records["c"].finish_time == 370.0

    def test_eager_hatch_never_fires_stale(self, monkeypatch):
        monkeypatch.setenv("REPRO_REFERENCE", "1")
        runner = self._straggled_runner(heal_after_s=1e6)
        record = runner.progress.running["c"]
        # Eager cancel+reschedule keeps the armed timer authoritative.
        assert record.completion.time == 370.0
        runner.engine.run(until=500.0)
        assert runner.progress.stale_fires == 0
        assert runner.collector.records["c"].finish_time == 370.0


class TestRepriceMemo:
    """The run-scoped ``_speed_memo`` shares one ``iteration_time`` call
    among every reprice with the same model, setup, cores, contention
    effect key and interconnect."""

    def _counting_runner(self, monkeypatch, jobs=("j",)):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return iteration_time(*args, **kwargs)

        monkeypatch.setattr(
            "repro.experiments.runner.iteration_time", counting
        )
        runner = _runner()
        for job_id in jobs:
            runner.submit_at(0.0, _gpu(job_id, iters=10**9))
        runner.engine.run(until=10.0)
        return runner, calls

    def test_unchanged_effect_key_skips_iteration_time(self, monkeypatch):
        # Two identical trainers on a quiet node land on one memo key:
        # the second start is priced without calling the model.
        runner, calls = self._counting_runner(monkeypatch, jobs=("j", "k"))
        nodes = {
            runner.cluster.allocation_of(job_id).node_ids[0]
            for job_id in ("j", "k")
        }
        assert len(calls) == 1
        assert runner.progress.running["j"].speed == runner.progress.running["k"].speed
        # A refresh with no speed input moved reprices nothing: no model
        # call and no accrual point.
        runner.progress.touch(nodes)
        assert len(calls) == 1
        assert runner.progress.running["j"].last_update == 0.0

    def test_grant_ratio_change_recomputes(self, monkeypatch):
        runner, calls = self._counting_runner(monkeypatch)
        node_id = runner.cluster.allocation_of("j").node_ids[0]
        baseline = len(calls)
        record = runner.progress.running["j"]
        node = runner.cluster.node(node_id)
        assert node.bandwidth.grant_ratio("j") == 1.0
        # A demand past the node's capacity cuts the job's grant ratio:
        # the effect key moves and the memo must miss.
        node.bandwidth.update_demand("j", 2 * node.bandwidth.capacity_gbps)
        assert node.bandwidth.grant_ratio("j") < 1.0
        speed = record.speed
        runner.progress.touch({node_id})
        assert len(calls) == baseline + 1
        # The speed moved, so progress accrued at the old speed.
        assert record.speed < speed
        assert record.last_update == 10.0
        assert record.work_done == speed * 10.0

    def test_eager_hatch_always_recomputes(self, monkeypatch):
        monkeypatch.setenv("REPRO_REFERENCE", "1")
        runner, calls = self._counting_runner(monkeypatch)
        node_id = runner.cluster.allocation_of("j").node_ids[0]
        baseline = len(calls)
        runner.progress.touch({node_id})
        assert len(calls) == baseline + 1
        # Same speed, so still no accrual point.
        assert runner.progress.running["j"].last_update == 0.0


class TestChangeDrivenRepricing:
    """A refresh reprices only jobs whose speed inputs moved."""

    @staticmethod
    def _count_reprices(monkeypatch):
        repriced = []
        for kind in (_RunningGpu, _RunningCpu):

            def counting(record, progress, inner=kind.price):
                repriced.append(record.job.job_id)
                return inner(record, progress)

            monkeypatch.setattr(kind, "price", counting)
        return repriced

    def test_cpu_start_on_an_uncontended_node_reprices_only_it(
        self, monkeypatch
    ):
        runner = _runner(nodes=1)
        runner.submit_at(0.0, _gpu("g", iters=10**9))
        runner.submit_at(0.0, _cpu("c1", duration=1000.0))
        runner.engine.run(until=10.0)
        repriced = self._count_reprices(monkeypatch)
        runner.submit_at(20.0, _cpu("c2", duration=1000.0))
        runner.engine.run(until=30.0)
        assert repriced == ["c2"]
        assert runner.progress.running["c1"].last_update == 0.0
        assert runner.progress.running["g"].last_update == 0.0

    def test_halving_reprices_an_uncontended_job_directly(self):
        runner = _runner(nodes=1)
        runner.submit_at(0.0, _cpu("c", cores=4, duration=100.0))
        runner.engine.run(until=10.0)
        record = runner.progress.running["c"]
        node = record.nodes[0]
        runner.halve_cpu_job_cores("c")
        # The grant follows the halved demand, so the ratio stays 1.0;
        # the core count alone halves the speed.
        assert node.bandwidth.grant_ratio("c") == 1.0
        assert record.speed == 0.5
        assert record.work_done == 10.0
        assert record.completion_time == 10.0 + 90.0 / 0.5

    def test_resize_reprices_the_trainer_directly(self):
        runner = _runner(nodes=1)
        runner.submit_at(0.0, _gpu("g", cpus=1, iters=10**9))
        runner.engine.run(until=10.0)
        record = runner.progress.running["g"]
        speed = record.speed
        assert runner.resize_gpu_job_cores("g", 3)
        assert record.speed > speed
        assert record.recheck(runner.progress) == (
            (record.speed, record.utilization),
            (record.speed, record.utilization),
        )
        assert record.last_update == 10.0


class TestActivityIndexedMonitor:
    def test_active_set_tracks_cpu_hosts(self):
        runner = _runner()
        # What the eliminator installs when it starts (FIFO has none).
        runner.monitor_watch_pressure(0.75)
        assert list(runner.monitor_active_node_ids()) == []
        # A CPU job streaming past the threshold wakes its node.
        runner.submit_at(0.0, _cpu("c", duration=50.0, bw=120.0))
        runner.engine.run(until=1.0)
        node_id = runner.cluster.allocation_of("c").node_ids[0]
        assert list(runner.monitor_active_node_ids()) == [node_id]
        # Only the eliminator revokes membership (after a successful
        # observe found nothing to do); job completion alone keeps the
        # node listed until then.
        runner.engine.run(until=60.0)
        assert "c" not in runner.progress.running
        assert list(runner.monitor_active_node_ids()) == [node_id]
        runner.monitor_deactivate_node(node_id)
        assert list(runner.monitor_active_node_ids()) == []

    def test_telemetry_outage_activates_node(self):
        runner = _runner()
        runner.begin_telemetry_outage(1, duration_s=60.0)
        assert list(runner.monitor_active_node_ids()) == [1]

    def test_backfill_reconstructs_eager_sample_stamp(self):
        runner = _runner()
        # Ticks at t=40 happened while node 1 was skippable...
        runner.monitor_note_tick(40.0)
        runner.engine.run(until=50.0)
        runner._monitor_activate(1)
        # ...so on activation its MBM stamp reads as refreshed at t=40.
        assert runner.cluster.node(1).bandwidth.sample_age(50.0) == 10.0

    def test_no_backfill_while_node_was_unobservable(self):
        runner = _runner()
        runner.engine.run(until=50.0)
        runner.fail_node(1)  # vetoes back-fill until recovery
        runner.monitor_note_tick(60.0)
        runner._monitor_activate(1)
        assert runner.cluster.node(1).bandwidth.sample_age(60.0) == float(
            "inf"
        )

    def test_eager_hatch_ticks_every_node(self, monkeypatch):
        monkeypatch.setenv("REPRO_REFERENCE", "1")
        runner = _runner(nodes=3)
        assert list(runner.monitor_active_node_ids()) == [0, 1, 2]
        runner.monitor_deactivate_node(1)
        assert list(runner.monitor_active_node_ids()) == [0, 1, 2]

    def _coda_cpu_host(self):
        """A CODA runner whose one CPU job streams 120 GB/s, past the
        eliminator's 75 % threshold of 128 GB/s, until t=10 and 1 GB/s
        after; the eliminator ticks every 30 s."""
        runner = SimulationRunner(
            Cluster(small_cluster(nodes=2)),
            CodaScheduler(),
            sample_interval_s=1e9,
        )
        runner.submit_at(0.0, _cpu("c", duration=1000.0, bw=120.0))
        runner.engine.run(until=1.0)
        node = runner.cluster.node(runner.cluster.allocation_of("c").node_ids[0])
        runner.engine.run(until=10.0)
        node.bandwidth.update_demand("c", 1.0)
        return runner, node

    def test_low_pressure_cpu_host_leaves_the_active_set(self):
        runner, node = self._coda_cpu_host()
        assert list(runner.monitor_active_node_ids()) == [node.node_id]
        runner.engine.run(until=31.0)
        # The t=30 check read pressure below the threshold with no
        # throttle to relax: the node drops out, CPU job and all.
        assert node.bandwidth.has_cpu_jobs()
        assert node.bandwidth.pressure < runner._monitor_threshold
        assert list(runner.monitor_active_node_ids()) == []

    def test_pressure_crossing_wakes_node_with_backfilled_stamp(self):
        runner, node = self._coda_cpu_host()
        runner.engine.run(until=65.0)  # the t=60 tick skipped the node
        assert list(runner.monitor_active_node_ids()) == []
        node.bandwidth.update_demand("c", node.bandwidth.capacity_gbps)
        assert node.bandwidth.pressure >= runner._monitor_threshold
        # The arbitration woke the node, and its stamp reads as the
        # t=60 observe an eager tick would have made.
        assert list(runner.monitor_active_node_ids()) == [node.node_id]
        assert node.bandwidth.sample_age(65.0) == 5.0

    def test_eager_hatch_drops_no_cpu_host(self, monkeypatch):
        monkeypatch.setenv("REPRO_REFERENCE", "1")
        runner, node = self._coda_cpu_host()
        runner.engine.run(until=65.0)
        assert runner._monitor_threshold is None
        assert list(runner.monitor_active_node_ids()) == [0, 1]
        assert node.bandwidth.sample_age(65.0) == 5.0  # observed at t=60


class TestStaleFiresInRunResult:
    def test_scalar_surfaces_in_run_result(self):
        runner = _runner()
        runner.submit_at(0.0, _cpu("c", duration=100.0))
        runner.engine.run(until=10.0)
        runner.apply_cpu_straggler("c", factor=0.25, duration_s=1e6)
        result = runner.run(until=500.0)
        assert result.stale_timer_fires == 1
        # Stale fires are the only event-count difference vs the
        # reference mode, so this identity is what the parity sweep
        # compares across modes.
        assert result.events_fired > result.stale_timer_fires
