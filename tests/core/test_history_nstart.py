"""Tenant history log and N_start determination (Sec. V-B1)."""

import pytest

from repro.core.historylog import TenantHistory
from repro.core.nstart import CATEGORY_DEFAULTS, GLOBAL_DEFAULT, determine_n_start
from repro.perfmodel.stages import TrainSetup
from repro.workload.job import GpuJob, JobHints


def _job(
    tenant=1,
    model="resnet50",
    category_provided=True,
    nodes=1,
    gpus=1,
    **hint_kwargs,
):
    return GpuJob(
        job_id="j",
        tenant_id=tenant,
        submit_time=0.0,
        model_name=model,
        setup=TrainSetup(nodes, gpus),
        requested_cpus=2,
        total_iterations=10,
        hints=JobHints(category_provided=category_provided, **hint_kwargs),
    )


class TestTenantHistory:
    def test_best_cores_takes_largest(self):
        history = TenantHistory()
        history.record(1, "a", "resnet50", "CV", 3)
        history.record(1, "b", "alexnet", "CV", 8)
        assert history.best_cores(1, "CV") == 8

    def test_no_history_returns_none(self):
        assert TenantHistory().best_cores(1, "CV") is None

    def test_categories_are_separate(self):
        history = TenantHistory()
        history.record(1, "a", "bat", "NLP", 5)
        assert history.best_cores(1, "CV") is None

    def test_tenants_are_separate(self):
        history = TenantHistory()
        history.record(1, "a", "bat", "NLP", 5)
        assert history.best_cores(2, "NLP") is None

    def test_window_evicts_old_entries(self):
        history = TenantHistory(window=2)
        history.record(1, "a", "alexnet", "CV", 9)
        history.record(1, "b", "resnet50", "CV", 3)
        history.record(1, "c", "resnet50", "CV", 3)
        assert history.best_cores(1, "CV") == 3

    def test_any_category_fallback(self):
        history = TenantHistory()
        history.record(1, "a", "bat", "NLP", 5)
        history.record(1, "b", "resnet50", "CV", 3)
        assert history.best_cores_any_category(1) == 5
        assert history.best_cores_any_category(2) is None

    def test_rejects_nonpositive_cores(self):
        with pytest.raises(ValueError):
            TenantHistory().record(1, "a", "bat", "NLP", 0)

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            TenantHistory(window=0)



class TestCategoryDefaults:
    def test_paper_values(self):
        """Sec. V-B1: 3 for CV, 5 for NLP, 5 for SPEECH."""
        assert CATEGORY_DEFAULTS == {"CV": 3, "NLP": 5, "SPEECH": 5}

    def test_cv_default(self):
        start = determine_n_start(_job(model="resnet50"), TenantHistory(), max_cores=28)
        assert start == 3

    def test_nlp_default(self):
        start = determine_n_start(_job(model="bat"), TenantHistory(), max_cores=28)
        assert start == 5

    def test_speech_default(self):
        start = determine_n_start(_job(model="wavenet"), TenantHistory(), max_cores=28)
        assert start == 5

    def test_no_category_uses_global_default(self):
        start = determine_n_start(
            _job(category_provided=False), TenantHistory(), max_cores=28
        )
        assert start == GLOBAL_DEFAULT


class TestHistoryPriority:
    def test_same_category_history_wins(self):
        history = TenantHistory()
        history.record(1, "a", "alexnet", "CV", 8)
        assert determine_n_start(_job(), history, max_cores=28) == 8

    def test_cross_category_fallback_without_category(self):
        history = TenantHistory()
        history.record(1, "a", "bat", "NLP", 5)
        start = determine_n_start(
            _job(category_provided=False), history, max_cores=28
        )
        assert start == 5

    def test_other_tenants_history_is_ignored(self):
        history = TenantHistory()
        history.record(2, "a", "alexnet", "CV", 8)
        assert determine_n_start(_job(tenant=1), history, max_cores=28) == 3


class TestHints:
    def test_pipeline_hint_reduces_by_one(self):
        start = determine_n_start(
            _job(uses_pipeline=True), TenantHistory(), max_cores=28
        )
        assert start == 2

    def test_many_weights_reduces_by_one(self):
        start = determine_n_start(
            _job(many_weights=True), TenantHistory(), max_cores=28
        )
        assert start == 2

    def test_complex_prep_increases_by_one(self):
        start = determine_n_start(
            _job(model="bat", complex_inter_iteration=True),
            TenantHistory(),
            max_cores=28,
        )
        assert start == 6

    def test_hints_compose(self):
        start = determine_n_start(
            _job(uses_pipeline=True, many_weights=True), TenantHistory(), max_cores=28
        )
        assert start == 1

    def test_hints_do_not_apply_to_history_starts(self):
        """History already reflects tuned outcomes; hints must not skew it."""
        history = TenantHistory()
        history.record(1, "a", "resnet50", "CV", 4)
        start = determine_n_start(_job(uses_pipeline=True), history, max_cores=28)
        assert start == 4

    def test_floor_is_one_core(self):
        history = TenantHistory()
        job = _job(uses_pipeline=True, many_weights=True)
        start = determine_n_start(job, history, max_cores=28)
        assert start >= 1


class TestScaling:
    def test_multi_gpu_scales_linearly(self):
        """Sec. IV-B2: per-node demand is linear in local GPU count."""
        start = determine_n_start(_job(gpus=4), TenantHistory(), max_cores=28)
        assert start == 12

    def test_multi_node_capped_at_two(self):
        start = determine_n_start(
            _job(nodes=2, gpus=2, model="alexnet"), TenantHistory(), max_cores=28
        )
        assert start <= 2

    def test_clamped_to_max_cores(self):
        history = TenantHistory()
        history.record(1, "a", "alexnet", "CV", 8)
        start = determine_n_start(_job(gpus=4), history, max_cores=28)
        assert start == 28

    def test_invalid_bounds_raise(self):
        with pytest.raises(ValueError):
            determine_n_start(_job(), TenantHistory(), max_cores=0)
