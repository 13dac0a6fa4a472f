"""Metrics collector lifecycle accounting."""

from array import array

import pytest

from repro.metrics.collector import MetricsCollector
from repro.metrics.fragmentation import FragmentationTracker
from repro.metrics.report import render_cdf, render_series, render_table
from repro.perfmodel.stages import TrainSetup
from repro.workload.job import CpuJob, GpuJob, JobKind


def _gpu(job_id="g1", tenant=1, nodes=1, cpus=2):
    return GpuJob(
        job_id=job_id,
        tenant_id=tenant,
        submit_time=0.0,
        model_name="resnet50",
        setup=TrainSetup(nodes, 1),
        requested_cpus=cpus,
        total_iterations=10,
    )


def _cpu(job_id="c1", tenant=2):
    return CpuJob(job_id=job_id, tenant_id=tenant, submit_time=0.0, cores=4)


class TestJobLifecycle:
    def test_full_lifecycle_metrics(self):
        collector = MetricsCollector()
        collector.job_submitted(_gpu(), 5.0)
        collector.job_started("g1", 15.0, cpus_per_node=3)
        collector.job_finished("g1", 115.0)
        record = collector.records["g1"]
        assert record.queueing_time == 10.0
        assert record.processing_time == 100.0
        assert record.finish_time - record.submit_time == 110.0

    def test_double_submit_raises(self):
        collector = MetricsCollector()
        collector.job_submitted(_gpu(), 0.0)
        with pytest.raises(RuntimeError):
            collector.job_submitted(_gpu(), 1.0)

    def test_double_finish_raises(self):
        collector = MetricsCollector()
        collector.job_submitted(_gpu(), 0.0)
        collector.job_started("g1", 1.0, 2)
        collector.job_finished("g1", 2.0)
        with pytest.raises(RuntimeError):
            collector.job_finished("g1", 3.0)

    def test_restart_keeps_first_start(self):
        collector = MetricsCollector()
        collector.job_submitted(_cpu(), 0.0)
        collector.job_started("c1", 10.0, 4)
        collector.job_preempted("c1", 20.0)
        collector.job_started("c1", 30.0, 4)
        record = collector.records["c1"]
        assert record.queueing_time == 10.0
        assert record.start_count == 2
        assert record.preempt_count == 1

    def test_core_adjustment_is_per_node(self):
        collector = MetricsCollector()
        collector.job_submitted(_gpu(nodes=2, cpus=3), 0.0)
        collector.job_started("g1", 1.0, cpus_per_node=5)
        assert collector.records["g1"].core_adjustment == 2

    def test_resize_updates_final_cpus(self):
        collector = MetricsCollector()
        collector.job_submitted(_gpu(cpus=2), 0.0)
        collector.job_started("g1", 1.0, 2)
        collector.job_resized("g1", 6)
        assert collector.records["g1"].core_adjustment == 4


class TestQueueingViews:
    def _collector(self):
        collector = MetricsCollector()
        collector.job_submitted(_gpu("g1", tenant=1), 0.0)
        collector.job_submitted(_gpu("g2", tenant=2), 0.0)
        collector.job_submitted(_cpu("c1", tenant=1), 0.0)
        collector.job_started("g1", 60.0, 2)
        collector.job_started("c1", 5.0, 4)
        return collector

    def test_queueing_times_by_kind(self):
        collector = self._collector()
        assert collector.queueing_times(JobKind.GPU) == [60.0]
        assert collector.queueing_times(JobKind.CPU) == [5.0]

    def test_censoring_counts_unstarted(self):
        collector = self._collector()
        delays = collector.queueing_times(
            JobKind.GPU, include_unstarted_until=600.0
        )
        assert sorted(delays) == [60.0, 600.0]

    def test_by_tenant(self):
        collector = self._collector()
        by_tenant = collector.queueing_times_by_tenant()
        assert by_tenant[1] == [60.0, 5.0] or sorted(by_tenant[1]) == [5.0, 60.0]
        assert 2 not in by_tenant

    def test_finished_and_started_views(self):
        collector = self._collector()
        collector.job_finished("c1", 50.0)
        assert len(collector.finished_records()) == 1
        assert len(collector.started_records(JobKind.GPU)) == 1


def _tracker():
    """A tracker on time and depth columns of its own."""
    return FragmentationTracker(array("d"), array("i"))


class TestFragmentationTracker:
    def test_rate_over_contended_samples_only(self):
        tracker = _tracker()
        tracker.record(0.5, 0)
        tracker.record(0.2, 3)
        tracker.record(0.4, 1)
        assert tracker.fragmentation_rate() == pytest.approx(0.3)
        assert tracker.contended_fraction() == pytest.approx(2 / 3)

    def test_no_contention_means_zero(self):
        tracker = _tracker()
        tracker.record(0.9, 0)
        assert tracker.fragmentation_rate() == 0.0

    def test_empty_tracker(self):
        tracker = _tracker()
        assert tracker.fragmentation_rate() == 0.0
        assert tracker.contended_fraction() == 0.0

    def test_validation(self):
        tracker = _tracker()
        with pytest.raises(ValueError):
            tracker.record(1.5, 0)
        with pytest.raises(ValueError):
            tracker.record(0.5, -1)


class TestReportRendering:
    def test_table_alignment(self):
        text = render_table(["name", "value"], [["a", 1], ["long-name", 22]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        assert all(len(line) <= len(max(lines, key=len)) for line in lines)

    def test_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [["only-one"]])

    def test_table_title(self):
        text = render_table(["h"], [["x"]], title="My Table")
        assert text.splitlines()[0] == "My Table"

    def test_series_thinning(self):
        points = [(float(t), float(t)) for t in range(100)]
        text = render_series("metric", points, max_points=10)
        assert len(text.splitlines()) <= 15

    def test_series_empty(self):
        assert "empty" in render_series("metric", [])

    def test_cdf_rendering(self):
        points = [(1.0, 0.25), (2.0, 0.5), (4.0, 1.0)]
        text = render_cdf("delay", points)
        assert "p50" in text

    def test_cdf_empty(self):
        assert "empty" in render_cdf("delay", [])


class TestBatchedSampling:
    """sample_cluster appends one batch across seven series; the shared
    time column must still reject clock regressions."""

    def _sample(self, collector, now, depth=0):
        collector.sample_cluster(
            now,
            gpu_active_rate=0.5,
            gpu_utilization=0.6,
            gpu_utilization_overall=0.4,
            cpu_active_rate=0.7,
            gpu_queue_depth=depth,
            cpu_queue_depth=depth,
            free_gpu_fraction=0.5,
            hot_nodes=1,
        )

    def test_batch_lands_in_every_series(self):
        collector = MetricsCollector()
        self._sample(collector, 10.0)
        self._sample(collector, 20.0)
        for series in (
            collector.gpu_active_rate,
            collector.gpu_utilization,
            collector.gpu_utilization_overall,
            collector.cpu_active_rate,
            collector.gpu_queue_depth,
            collector.cpu_queue_depth,
            collector.hot_nodes,
        ):
            assert series.times() == [10.0, 20.0]

    def test_time_regression_rejected(self):
        collector = MetricsCollector()
        self._sample(collector, 10.0)
        with pytest.raises(ValueError):
            self._sample(collector, 9.0)

    def test_equal_timestamps_allowed(self):
        collector = MetricsCollector()
        self._sample(collector, 10.0)
        self._sample(collector, 10.0)
        assert len(collector.hot_nodes) == 2
