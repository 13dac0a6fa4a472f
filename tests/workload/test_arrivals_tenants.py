"""Arrival processes and tenant profiles."""

import random

import pytest

from repro.perfmodel.catalog import Domain
from repro.sim.clock import DAY, HOUR
from repro.workload.arrivals import DiurnalRate, poisson_arrivals
from repro.workload.tenants import (
    TenantKind,
    TenantProfile,
    paper_tenants,
)


class TestDiurnalRate:
    def test_flat_when_amplitude_zero(self):
        rate = DiurnalRate(base_per_s=2.0)
        assert rate(0.0) == rate(6 * HOUR) == 2.0

    def test_peak_and_trough(self):
        rate = DiurnalRate(base_per_s=1.0, amplitude=0.5)
        quarter = DAY / 4
        assert rate(quarter) == pytest.approx(1.5)
        assert rate(3 * quarter) == pytest.approx(0.5)

    def test_never_negative(self):
        rate = DiurnalRate(base_per_s=1.0, amplitude=1.0)
        assert rate(3 * DAY / 4) == pytest.approx(0.0)

    def test_max_rate(self):
        assert DiurnalRate(2.0, 0.25).max_rate == pytest.approx(2.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            DiurnalRate(-1.0)
        with pytest.raises(ValueError):
            DiurnalRate(1.0, amplitude=1.5)
        with pytest.raises(ValueError):
            DiurnalRate(1.0, period_s=0.0)


class TestPoissonArrivals:
    def test_homogeneous_rate_approximates_expectation(self):
        rng = random.Random(1)
        rate = DiurnalRate(base_per_s=0.1)
        arrivals = list(poisson_arrivals(rate, rate.max_rate, 10000.0, rng))
        assert len(arrivals) == pytest.approx(1000, rel=0.15)

    def test_arrivals_sorted_and_in_window(self):
        rng = random.Random(2)
        rate = DiurnalRate(base_per_s=0.05, amplitude=0.5)
        arrivals = list(poisson_arrivals(rate, rate.max_rate, 5000.0, rng))
        assert arrivals == sorted(arrivals)
        assert all(0.0 <= t < 5000.0 for t in arrivals)

    def test_diurnal_shape_shows_in_counts(self):
        rng = random.Random(3)
        rate = DiurnalRate(base_per_s=0.05, amplitude=0.9)
        arrivals = list(poisson_arrivals(rate, rate.max_rate, DAY, rng))
        first_half = sum(1 for t in arrivals if t < DAY / 2)
        second_half = len(arrivals) - first_half
        assert first_half > 1.5 * second_half

    def test_zero_envelope_yields_nothing(self):
        assert list(poisson_arrivals(lambda t: 0.0, 0.0, 100.0, random.Random(0))) == []

    def test_empty_window_yields_nothing(self):
        rate = DiurnalRate(base_per_s=1.0)
        assert (
            list(poisson_arrivals(rate, rate.max_rate, 5.0, random.Random(0), start_s=5.0))
            == []
        )

    def test_bad_envelope_raises(self):
        gen = poisson_arrivals(lambda t: 10.0, 1.0, 100.0, random.Random(0))
        with pytest.raises(ValueError):
            list(gen)

    def test_deterministic_given_seed(self):
        rate = DiurnalRate(base_per_s=0.02)
        a = list(poisson_arrivals(rate, rate.max_rate, 1000.0, random.Random(7)))
        b = list(poisson_arrivals(rate, rate.max_rate, 1000.0, random.Random(7)))
        assert a == b


class TestTenants:
    def test_twenty_users(self):
        assert len(paper_tenants()) == 20

    def test_users_15_to_20_are_cpu_only(self):
        """Fig. 12's note: ids 15-20 submit only CPU tasks."""
        for tenant in paper_tenants():
            if 15 <= tenant.tenant_id <= 20:
                assert tenant.kind is TenantKind.CPU_ONLY
                assert tenant.gpu_job_weight == 0.0
            else:
                assert tenant.gpu_job_weight > 0.0

    def test_research_lab_dominates_gpu_jobs(self):
        """Fig. 2a: the lab contributes most GPU jobs."""
        tenants = paper_tenants()
        lab = sum(
            t.gpu_job_weight
            for t in tenants
            if t.kind is TenantKind.RESEARCH_LAB
        )
        companies = sum(
            t.gpu_job_weight for t in tenants if t.kind is TenantKind.AI_COMPANY
        )
        assert lab > companies

    def test_companies_dominate_cpu_jobs(self):
        tenants = paper_tenants()
        lab = sum(
            t.cpu_job_weight
            for t in tenants
            if t.kind is TenantKind.RESEARCH_LAB
        )
        others = sum(
            t.cpu_job_weight
            for t in tenants
            if t.kind is not TenantKind.RESEARCH_LAB
        )
        assert others > lab

    def test_domain_mixes_sum_to_one(self):
        for tenant in paper_tenants():
            if tenant.gpu_job_weight > 0:
                assert sum(w for _, w in tenant.domain_mix) == pytest.approx(1.0)

    def test_weights_by_tenant(self):
        weights = {t.tenant_id: t for t in paper_tenants()}
        assert weights[20].gpu_job_weight == 0.0
        assert weights[20].cpu_job_weight > 0.0

    def test_cpu_only_cannot_have_gpu_weight(self):
        with pytest.raises(ValueError):
            TenantProfile(
                tenant_id=1,
                kind=TenantKind.CPU_ONLY,
                gpu_job_weight=1.0,
                cpu_job_weight=1.0,
                domain_mix=(),
                diurnal_amplitude=0.5,
            )

    def test_bad_domain_mix_rejected(self):
        with pytest.raises(ValueError):
            TenantProfile(
                tenant_id=1,
                kind=TenantKind.AI_COMPANY,
                gpu_job_weight=1.0,
                cpu_job_weight=1.0,
                domain_mix=((Domain.CV, 0.5),),
                diurnal_amplitude=0.5,
            )

    def test_negative_domain_weight_rejected(self):
        # The mix sums to 1, but a weighted draw needs every weight >= 0.
        with pytest.raises(ValueError, match="tenant 3: negative weight in domain mix"):
            TenantProfile(
                tenant_id=3,
                kind=TenantKind.AI_COMPANY,
                gpu_job_weight=1.0,
                cpu_job_weight=1.0,
                domain_mix=((Domain.CV, 1.2), (Domain.NLP, -0.2)),
                diurnal_amplitude=0.5,
            )
