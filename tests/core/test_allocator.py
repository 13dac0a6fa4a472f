"""The adaptive CPU allocator's profiling-step loop."""

import pytest

from repro.core.allocator import AdaptiveCpuAllocator
from repro.perfmodel.stages import TrainSetup
from repro.workload.job import GpuJob

from tests.core.fakes import FakeContext


def _job(job_id="g1", tenant=1, model="resnet50", gpus=1, nodes=1, req=2):
    return GpuJob(
        job_id=job_id,
        tenant_id=tenant,
        submit_time=0.0,
        model_name=model,
        setup=TrainSetup(nodes, gpus),
        requested_cpus=req,
        total_iterations=1000,
    )


def _tuning(allocator):
    """Jobs with an open tuning session, as a checkpoint records them."""
    return allocator.snapshot()["active"].keys()


def _degraded_until(allocator):
    """When the allocator's degraded mode ends (a checkpointed field)."""
    return allocator.snapshot()["degraded_until"]


def curve_with_knee(optimum: int, peak: float = 0.9):
    def fn(job_id: str, cores: int) -> float:
        if cores <= optimum:
            return peak * cores / optimum
        return max(0.0, peak - 0.002 * (cores - optimum))

    return fn


class TestInitialCores:
    def test_uses_nstart_rules(self):
        allocator = AdaptiveCpuAllocator()
        assert allocator.initial_cores(_job(model="resnet50"), node_cores=28) == 3
        assert allocator.initial_cores(_job(model="bat"), node_cores=28) == 5

    def test_clamped_by_node(self):
        allocator = AdaptiveCpuAllocator()
        assert allocator.initial_cores(_job(model="bat", gpus=8), node_cores=12) == 12

    def test_tuned_job_restarts_at_tuned_value(self):
        allocator = AdaptiveCpuAllocator()
        context = FakeContext(curve_with_knee(5))
        allocator.attach(context)
        job = _job()
        context.start_job(job.job_id, 4)
        allocator.on_job_started(job, 4, context)
        context.fire_all()
        assert allocator.tuned_cores(job.job_id) == 5
        assert allocator.initial_cores(job, node_cores=28) == 5


class TestProfilingLoop:
    def test_converges_and_records_outcome(self):
        allocator = AdaptiveCpuAllocator()
        context = FakeContext(curve_with_knee(5))
        allocator.attach(context)
        job = _job()
        context.start_job(job.job_id, 4)
        allocator.on_job_started(job, 4, context)
        assert job.job_id in _tuning(allocator)
        context.fire_all()
        assert job.job_id not in _tuning(allocator)
        outcome = allocator.outcomes[job.job_id]
        assert outcome.tuned_cores == 5
        assert outcome.profiling_steps == 4
        assert context.cores[job.job_id] == 5

    def test_profiling_steps_are_90s_apart(self):
        allocator = AdaptiveCpuAllocator()
        context = FakeContext(curve_with_knee(3))
        allocator.attach(context)
        job = _job()
        context.start_job(job.job_id, 3)
        allocator.on_job_started(job, 3, context)
        assert context.events[0][0] == pytest.approx(90.0)

    def test_resize_failure_settles_on_best_seen(self):
        allocator = AdaptiveCpuAllocator()
        context = FakeContext(curve_with_knee(10))
        allocator.attach(context)
        context.max_resize = 6
        job = _job()
        context.start_job(job.job_id, 5)
        allocator.on_job_started(job, 5, context)
        context.fire_all()
        assert allocator.tuned_cores(job.job_id) == 6

    def test_job_finish_mid_tuning_cancels_events(self):
        allocator = AdaptiveCpuAllocator()
        context = FakeContext(curve_with_knee(5))
        allocator.attach(context)
        job = _job()
        context.start_job(job.job_id, 4)
        allocator.on_job_started(job, 4, context)
        allocator.on_job_finished(job, final_cores=4)
        context.stop_job(job.job_id)
        assert context.fire_all() <= 1  # the cancelled step never recurses
        assert job.job_id not in _tuning(allocator)

    def test_duplicate_start_is_ignored(self):
        allocator = AdaptiveCpuAllocator()
        context = FakeContext(curve_with_knee(5))
        allocator.attach(context)
        job = _job()
        context.start_job(job.job_id, 4)
        allocator.on_job_started(job, 4, context)
        allocator.on_job_started(job, 4, context)
        assert len(context.events) == 1

    def test_step_after_job_vanishes_is_harmless(self):
        allocator = AdaptiveCpuAllocator()
        context = FakeContext(curve_with_knee(5))
        allocator.attach(context)
        job = _job()
        context.start_job(job.job_id, 4)
        allocator.on_job_started(job, 4, context)
        context.stop_job(job.job_id)  # finished without notifying allocator
        context.fire_all()  # must not raise


class TestHistoryFeedback:
    def test_finish_records_history_per_gpu(self):
        allocator = AdaptiveCpuAllocator()
        context = FakeContext(curve_with_knee(12))
        allocator.attach(context)
        job = _job(gpus=4)
        context.start_job(job.job_id, 12)
        allocator.on_job_started(job, 12, context)
        context.fire_all()
        allocator.on_job_finished(job, final_cores=12)
        assert allocator.history.best_cores(1, "CV") == 3  # 12 cores / 4 GPUs

    def test_multi_node_outcomes_excluded_from_history(self):
        allocator = AdaptiveCpuAllocator()
        job = _job(nodes=2, gpus=2)
        allocator.on_job_finished(job, final_cores=2)
        assert allocator.history.best_cores(1, "CV") is None

    def test_next_job_starts_from_history(self):
        allocator = AdaptiveCpuAllocator()
        context = FakeContext(curve_with_knee(6))
        allocator.attach(context)
        first = _job("g1")
        context.start_job("g1", 3)
        allocator.on_job_started(first, 3, context)
        context.fire_all()
        allocator.on_job_finished(first, final_cores=6)
        second = _job("g2")
        assert allocator.initial_cores(second, node_cores=28) == 6


class TestPreemption:
    def test_preempted_mid_tuning_remembers_best(self):
        allocator = AdaptiveCpuAllocator()
        context = FakeContext(curve_with_knee(5))
        allocator.attach(context)
        job = _job()
        context.start_job(job.job_id, 4)
        allocator.on_job_started(job, 4, context)
        context.fire_next()  # baseline measurement at 4
        allocator.on_job_preempted(job, current_cores=4)
        assert job.job_id not in _tuning(allocator)
        assert allocator.tuned_cores(job.job_id) is not None

    def test_preempted_after_tuning_keeps_tuned_cores(self):
        allocator = AdaptiveCpuAllocator()
        context = FakeContext(curve_with_knee(5))
        allocator.attach(context)
        job = _job()
        context.start_job(job.job_id, 5)
        allocator.on_job_started(job, 5, context)
        context.fire_all()
        allocator.on_job_preempted(job, current_cores=5)
        assert allocator.tuned_cores(job.job_id) == 5

    def test_restart_after_migration_skips_tuning(self):
        allocator = AdaptiveCpuAllocator()
        context = FakeContext(curve_with_knee(5))
        allocator.attach(context)
        job = _job()
        context.start_job(job.job_id, 5)
        allocator.on_job_started(job, 5, context)
        context.fire_all()
        allocator.on_job_preempted(job, current_cores=5)
        events_before = len(context.events)
        allocator.on_job_started(job, 5, context)
        assert len(context.events) == events_before


class TestDegradedMode:
    """Repeated failure-killed profiling sessions suspend new sessions
    for a cooldown; the allocator then serves N_start only."""

    def _fail_active_session(self, allocator, context, job_id, at):
        job = _job(job_id=job_id)
        context.start_job(job.job_id, 4)
        allocator.on_job_started(job, 4, context)
        assert job.job_id in _tuning(allocator)
        context._now = at
        context.stop_job(job.job_id)
        allocator.on_job_failed(job, now=at)

    def test_enters_degraded_after_threshold_aborts(self):
        allocator = AdaptiveCpuAllocator(
            degraded_after_aborts=3, degraded_cooldown_s=1000.0
        )
        context = FakeContext(curve_with_knee(5))
        allocator.attach(context)
        for i in range(3):
            self._fail_active_session(allocator, context, f"g{i}", at=10.0 * (i + 1))
        assert allocator.degraded_entries == 1
        assert _degraded_until(allocator) > 30.0
        # New jobs run at N_start with no session opened.
        job = _job(job_id="after")
        context.start_job(job.job_id, 4)
        allocator.on_job_started(job, 4, context)
        assert job.job_id not in _tuning(allocator)
        assert allocator.sessions_skipped_degraded == 1

    def test_probing_resumes_after_cooldown(self):
        allocator = AdaptiveCpuAllocator(
            degraded_after_aborts=2, degraded_cooldown_s=100.0
        )
        context = FakeContext(curve_with_knee(5))
        allocator.attach(context)
        for i in range(2):
            self._fail_active_session(allocator, context, f"g{i}", at=10.0)
        assert _degraded_until(allocator) > 50.0
        context._now = 200.0
        assert _degraded_until(allocator) <= 200.0
        job = _job(job_id="later")
        context.start_job(job.job_id, 4)
        allocator.on_job_started(job, 4, context)
        assert job.job_id in _tuning(allocator)

    def test_clean_session_resets_the_strike_count(self):
        allocator = AdaptiveCpuAllocator(
            degraded_after_aborts=2, degraded_cooldown_s=1000.0
        )
        context = FakeContext(curve_with_knee(5))
        allocator.attach(context)
        self._fail_active_session(allocator, context, "g0", at=10.0)
        # A session that converges cleanly proves the loop works again.
        ok = _job(job_id="ok")
        context.start_job(ok.job_id, 4)
        allocator.on_job_started(ok, 4, context)
        context.fire_all()
        assert ok.job_id not in _tuning(allocator)
        self._fail_active_session(allocator, context, "g1", at=500.0)
        assert allocator.degraded_entries == 0
        assert _degraded_until(allocator) <= 500.0

    def test_failures_without_active_session_do_not_count(self):
        allocator = AdaptiveCpuAllocator(
            degraded_after_aborts=1, degraded_cooldown_s=1000.0
        )
        # The job never opened a session (e.g. it was already tuned).
        allocator.on_job_failed(_job(job_id="idle"), now=10.0)
        assert allocator.degraded_entries == 0

    def test_failed_job_forgets_tuned_cores(self):
        allocator = AdaptiveCpuAllocator()
        context = FakeContext(curve_with_knee(5))
        allocator.attach(context)
        job = _job()
        context.start_job(job.job_id, 4)
        allocator.on_job_started(job, 4, context)
        context.fire_all()
        assert allocator.tuned_cores(job.job_id) == 5
        allocator.on_job_failed(job, now=1000.0)
        assert allocator.tuned_cores(job.job_id) is None


class TestValidation:
    def test_bad_profiling_step(self):
        with pytest.raises(ValueError):
            AdaptiveCpuAllocator(profiling_step_s=0.0)

    def test_bad_max_cores(self):
        with pytest.raises(ValueError):
            AdaptiveCpuAllocator(max_cores_per_job=0)

    def test_bad_degraded_knobs(self):
        with pytest.raises(ValueError):
            AdaptiveCpuAllocator(degraded_after_aborts=0)
        with pytest.raises(ValueError):
            AdaptiveCpuAllocator(degraded_cooldown_s=-1.0)
