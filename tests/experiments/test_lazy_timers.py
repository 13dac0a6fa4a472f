"""Unit tests for the lazy completion-timer engine and the reprice memo.

The parity suites (tests/schedulers/test_*_parity.py) prove the lazy
runner equals ``REPRO_REFERENCE=1`` over whole simulations; these
tests pin the individual mechanisms — stale fire + re-arm, earlier-move
cancel + re-arm, the effect-keyed ``state_memo``, and the
activity-indexed monitor surface — with hand-computable numbers.
"""

import pytest

from repro.cluster.cluster import Cluster
from repro.config import small_cluster
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


def _cpu(job_id, cores=4, duration=100.0, submit=0.0):
    return CpuJob(
        job_id=job_id,
        tenant_id=2,
        submit_time=submit,
        cores=cores,
        duration_s=duration,
        bw_demand_gbps=1.0,
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
        record = runner._running_cpu["c"]
        # The old timer (armed at t=100) is deliberately left in place.
        assert record.completion_time == 370.0
        assert record.completion.time == 100.0
        runner.engine.run(until=120.0)
        # It fired stale at t=100 and re-armed at the authoritative time.
        assert runner._stale_timer_fires == 1
        assert "c" in runner._running_cpu
        assert record.completion.time == 370.0
        runner.engine.run(until=500.0)
        assert runner.collector.records["c"].finish_time == 370.0
        assert runner._stale_timer_fires == 1

    def test_earlier_moving_completion_cancels_and_rearms(self):
        runner = self._straggled_runner(heal_after_s=140.0)
        runner.engine.run(until=120.0)  # past the stale fire at t=100
        record = runner._running_cpu["c"]
        assert record.completion.time == 370.0
        # Heal at t=150: work = 10 + 0.25*140 = 45, so the completion
        # moves earlier (150 + 55 = 205 < 370) and must re-arm eagerly.
        runner.engine.run(until=160.0)
        assert record.completion_time == 205.0
        assert record.completion.time == 205.0
        runner.engine.run(until=500.0)
        assert runner.collector.records["c"].finish_time == 205.0
        assert runner._stale_timer_fires == 1

    def test_stale_fires_book_under_their_own_category(self):
        runner = self._straggled_runner(heal_after_s=1e6)
        profiler = Profiler()
        profiler.attach(runner.engine)
        runner.engine.run(until=500.0)
        # The stale fire at t=100 books under its own category; only the
        # real completion at t=370 books under its tag's, ``cpu-done``.
        assert profiler.counters == {
            "completion-stale": 1,
            "cpu-done": 1,
            "schedule-pass": 1,
        }
        assert "completion-stale" in profiler.timers
        assert runner.collector.records["c"].finish_time == 370.0

    def test_eager_hatch_never_fires_stale(self, monkeypatch):
        monkeypatch.setenv("REPRO_REFERENCE", "1")
        runner = self._straggled_runner(heal_after_s=1e6)
        record = runner._running_cpu["c"]
        # Eager cancel+reschedule keeps the armed timer authoritative.
        assert record.completion.time == 370.0
        runner.engine.run(until=500.0)
        assert runner._stale_timer_fires == 0
        assert runner.collector.records["c"].finish_time == 370.0


class TestRepriceMemo:
    def _counting_runner(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return iteration_time(*args, **kwargs)

        monkeypatch.setattr(
            "repro.experiments.runner.iteration_time", counting
        )
        runner = _runner()
        runner.submit_at(0.0, _gpu("j", iters=10**9))
        runner.engine.run(until=10.0)
        return runner, calls

    def test_unchanged_effect_key_skips_iteration_time(self, monkeypatch):
        runner, calls = self._counting_runner(monkeypatch)
        node_id = runner.cluster.allocation_of("j").node_ids[0]
        baseline = len(calls)
        # Re-pushing the same demand re-arbitrates grants onto the same
        # vector; the effect key is unchanged, so the model is not
        # re-evaluated...
        node = runner.cluster.node(node_id)
        node.bandwidth.update_demand("j", node.bandwidth.usage_of("j").demand)
        runner._refresh_nodes({node_id})
        assert len(calls) == baseline
        # ...but progress accrual still happened.
        assert runner._running_gpu["j"].last_update == 10.0

    def test_grant_ratio_change_recomputes(self, monkeypatch):
        runner, calls = self._counting_runner(monkeypatch)
        node_id = runner.cluster.allocation_of("j").node_ids[0]
        baseline = len(calls)
        node = runner.cluster.node(node_id)
        assert node.bandwidth.grant_ratio("j") == 1.0
        # A demand past the node's capacity cuts the job's grant ratio:
        # the effect key moves and the memo must miss.
        node.bandwidth.update_demand("j", 2 * node.bandwidth.capacity_gbps)
        assert node.bandwidth.grant_ratio("j") < 1.0
        runner._refresh_nodes({node_id})
        assert len(calls) == baseline + 1

    def test_eager_hatch_always_recomputes(self, monkeypatch):
        monkeypatch.setenv("REPRO_REFERENCE", "1")
        runner, calls = self._counting_runner(monkeypatch)
        node_id = runner.cluster.allocation_of("j").node_ids[0]
        baseline = len(calls)
        runner._refresh_nodes({node_id})
        assert len(calls) == baseline + 1


class TestActivityIndexedMonitor:
    def test_active_set_tracks_cpu_hosts(self):
        runner = _runner()
        assert list(runner.monitor_active_node_ids()) == []
        runner.submit_at(0.0, _cpu("c", duration=50.0))
        runner.engine.run(until=1.0)
        node_id = runner._running_cpu["c"].node_id
        assert list(runner.monitor_active_node_ids()) == [node_id]
        # Only the eliminator revokes membership (after a successful
        # observe found nothing to do); job completion alone keeps the
        # node listed until then.
        runner.engine.run(until=60.0)
        assert "c" not in runner._running_cpu
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
