"""Synthetic-trace distributions against the published marginals."""

import random

import pytest

from repro.sim.clock import DAY, HOUR
from repro.workload.heat import heat_job
from repro.workload.tracegen import (
    Trace,
    TraceConfig,
    generate_trace,
    sample_cpu_runtime_s,
    sample_gpu_runtime_s,
    sample_requested_cpus,
)


@pytest.fixture(scope="module")
def week_trace() -> Trace:
    return generate_trace(TraceConfig(duration_days=7.0, seed=42))


class TestComposition:
    def test_cpu_to_gpu_ratio_is_three_to_one(self, week_trace):
        """Sec. VI-A: 75,000 CPU jobs vs 25,000 GPU jobs."""
        ratio = len(week_trace.cpu_jobs) / len(week_trace.gpu_jobs)
        assert ratio == pytest.approx(3.0, rel=0.15)

    def test_jobs_sorted_by_submit_time(self, week_trace):
        times = [job.submit_time for job in week_trace.jobs]
        assert times == sorted(times)

    def test_job_ids_unique(self, week_trace):
        ids = [job.job_id for job in week_trace.jobs]
        assert len(ids) == len(set(ids))

    def test_all_submits_inside_window(self, week_trace):
        assert all(0 <= job.submit_time < 7 * DAY for job in week_trace.jobs)

    def test_determinism(self):
        config = TraceConfig(duration_days=0.5, seed=9)
        a = generate_trace(config)
        b = generate_trace(config)
        assert [j.job_id for j in a.jobs] == [j.job_id for j in b.jobs]
        assert [j.submit_time for j in a.jobs] == [j.submit_time for j in b.jobs]

    def test_different_seeds_differ(self):
        a = generate_trace(TraceConfig(duration_days=0.5, seed=1))
        b = generate_trace(TraceConfig(duration_days=0.5, seed=2))
        assert [j.submit_time for j in a.jobs] != [j.submit_time for j in b.jobs]

    def test_cpu_only_users_never_submit_gpu_jobs(self, week_trace):
        """Users 15-20 are CPU-only (Fig. 12)."""
        for job in week_trace.gpu_jobs:
            assert job.tenant_id < 15


class TestRequestedCores:
    def test_fig2d_bucket_shares(self, week_trace):
        """76.1 % request 1-2 per GPU; 15.3 % request more than 10."""
        per_gpu = [
            job.requested_cpus / job.setup.gpus_per_node
            for job in week_trace.gpu_jobs
        ]
        small = sum(1 for r in per_gpu if r <= 2) / len(per_gpu)
        large = sum(1 for r in per_gpu if r > 10) / len(per_gpu)
        assert small == pytest.approx(0.761, abs=0.04)
        # The per-node cap clips some >10-per-GPU draws for multi-GPU jobs.
        assert 0.05 <= large <= 0.20

    def test_sample_requested_cpus_scales_with_gpus(self):
        rng = random.Random(0)
        draws = [sample_requested_cpus(rng, gpus_per_node=4) for _ in range(500)]
        assert all(1 <= d <= 26 for d in draws)
        assert any(d >= 8 for d in draws)

    def test_sample_requested_rejects_bad_gpus(self):
        with pytest.raises(ValueError):
            sample_requested_cpus(random.Random(0), gpus_per_node=0)


class TestRuntimes:
    def test_gpu_runtime_tail_fractions(self):
        """Sec. VI-F: 68.5 % run > 1 h, 39.6 % run > 2 h."""
        rng = random.Random(11)
        draws = [sample_gpu_runtime_s(rng) for _ in range(8000)]
        over_1h = sum(1 for d in draws if d > HOUR) / len(draws)
        over_2h = sum(1 for d in draws if d > 2 * HOUR) / len(draws)
        assert over_1h == pytest.approx(0.685, abs=0.03)
        assert over_2h == pytest.approx(0.396, abs=0.03)

    def test_gpu_runtime_bounds(self):
        rng = random.Random(12)
        draws = [sample_gpu_runtime_s(rng) for _ in range(2000)]
        assert min(draws) >= 10 * 60
        assert max(draws) <= 24 * HOUR

    def test_cpu_runtime_bounds(self):
        rng = random.Random(13)
        draws = [sample_cpu_runtime_s(rng) for _ in range(2000)]
        assert min(draws) >= 30.0
        assert max(draws) <= 12 * HOUR

    def test_iterations_consistent_with_runtime(self, week_trace):
        for job in week_trace.gpu_jobs[:50]:
            assert job.total_iterations >= 1


class TestDiurnalCpuArrivals:
    def test_cpu_arrivals_follow_daily_peak(self, week_trace):
        """Fig. 1's diurnal CPU pattern: the generator's peak window
        (centred on phase 0 with a -6 h phase shift) sees far more
        arrivals than the trough window."""
        in_peak, in_trough = 0, 0
        for job in week_trace.cpu_jobs:
            phase = job.submit_time % DAY
            if phase < DAY / 4 or phase >= 3 * DAY / 4:
                in_peak += 1
            else:
                in_trough += 1
        assert in_peak > 1.3 * in_trough


class TestHeatJobs:
    def test_heat_fraction(self, week_trace):
        """Sec. VI-E: ~0.5 % of CPU jobs are bandwidth-heavy."""
        heats = [job for job in week_trace.cpu_jobs if job.is_heat]
        fraction = len(heats) / len(week_trace.cpu_jobs)
        assert fraction == pytest.approx(0.005, abs=0.004)

    def test_heat_jobs_are_bandwidth_heavy(self, week_trace):
        for job in week_trace.cpu_jobs:
            if job.is_heat:
                assert job.bw_demand_gbps >= 40.0
            else:
                assert job.bw_demand_gbps <= 2.0

    def test_heat_job_factory(self):
        job = heat_job("h1", 0.0, threads=10)
        assert job.cores == 10
        assert job.bw_demand_gbps == pytest.approx(80.0)
        assert job.is_heat

    def test_heat_job_rejects_zero_threads(self):
        with pytest.raises(ValueError):
            heat_job("h1", 0.0, threads=0)


class TestConfigValidation:
    def test_bad_duration(self):
        with pytest.raises(ValueError):
            TraceConfig(duration_days=0.0)

    def test_bad_heat_fraction(self):
        with pytest.raises(ValueError):
            TraceConfig(heat_fraction=1.5)

    def test_negative_rate(self):
        with pytest.raises(ValueError):
            TraceConfig(gpu_jobs_per_day=-1.0)

    def test_zero_rate_yields_empty_kind(self):
        trace = generate_trace(
            TraceConfig(duration_days=0.2, gpu_jobs_per_day=0.0, seed=5)
        )
        assert trace.gpu_jobs == []
        assert len(trace.cpu_jobs) > 0

    def test_duration_s(self):
        assert TraceConfig(duration_days=2.0).duration_s == 2 * DAY

