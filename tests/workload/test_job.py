"""Job record validation."""

import pytest

from repro.cluster.resources import ResourceVector
from repro.perfmodel.stages import TrainSetup
from repro.workload.job import MAX_C_INT, CpuJob, GpuJob, JobHints, JobKind


class TestCpuJob:
    def test_defaults(self):
        job = CpuJob(job_id="c1", tenant_id=1, submit_time=0.0)
        assert job.kind is JobKind.CPU
        assert job.requested == ResourceVector(cpus=1, gpus=0)

    def test_rejects_zero_cores(self):
        with pytest.raises(ValueError):
            CpuJob(job_id="c1", tenant_id=1, submit_time=0.0, cores=0)

    def test_rejects_non_positive_duration(self):
        with pytest.raises(ValueError):
            CpuJob(job_id="c1", tenant_id=1, submit_time=0.0, duration_s=0.0)

    def test_rejects_negative_bandwidth(self):
        with pytest.raises(ValueError):
            CpuJob(
                job_id="c1", tenant_id=1, submit_time=0.0, bw_demand_gbps=-1.0
            )

    def test_rejects_negative_submit_time(self):
        with pytest.raises(ValueError):
            CpuJob(job_id="c1", tenant_id=1, submit_time=-1.0)


class TestGpuJob:
    def _job(self, **kwargs):
        defaults = dict(
            job_id="g1",
            tenant_id=2,
            submit_time=10.0,
            model_name="resnet50",
            setup=TrainSetup(2, 2),
            requested_cpus=3,
            total_iterations=100,
        )
        defaults.update(kwargs)
        return GpuJob(**defaults)

    def test_requested_totals_across_nodes(self):
        job = self._job()
        assert job.requested == ResourceVector(cpus=6, gpus=4)

    def test_kind(self):
        assert self._job().kind is JobKind.GPU

    def test_category_comes_from_catalog(self):
        assert self._job().category == "CV"
        assert self._job(model_name="bat").category == "NLP"
        assert self._job(model_name="wavenet").category == "SPEECH"

    def test_unknown_model_rejected_at_construction(self):
        with pytest.raises(KeyError):
            self._job(model_name="gpt5")

    def test_rejects_zero_cores(self):
        with pytest.raises(ValueError):
            self._job(requested_cpus=0)

    def test_rejects_zero_iterations(self):
        with pytest.raises(ValueError):
            self._job(total_iterations=0)

    def test_hints_default_to_category_only(self):
        hints = self._job().hints
        assert hints.category_provided
        assert hints.uses_pipeline is None
        assert hints.many_weights is None
        assert hints.complex_inter_iteration is None

    def test_jobs_are_immutable(self):
        job = self._job()
        with pytest.raises(AttributeError):
            job.requested_cpus = 5

    def test_hints_record(self):
        hints = JobHints(uses_pipeline=True, many_weights=False)
        job = self._job(hints=hints)
        assert job.hints.uses_pipeline is True


class TestCIntBounds:
    """The job table keeps ids and counts in C int columns, so a job that
    does not fit one is refused where it is built, not at submission."""

    def test_largest_values_fit(self):
        CpuJob(job_id="c1", tenant_id=MAX_C_INT, submit_time=0.0, cores=MAX_C_INT)
        GpuJob(
            job_id="g1",
            tenant_id=MAX_C_INT,
            submit_time=0.0,
            requested_cpus=MAX_C_INT,
            setup=TrainSetup(num_nodes=1, gpus_per_node=MAX_C_INT),
        )

    @pytest.mark.parametrize(
        "make",
        [
            lambda: CpuJob(job_id="c1", tenant_id=2**40, submit_time=0.0),
            lambda: GpuJob(job_id="g1", tenant_id=MAX_C_INT + 1, submit_time=0.0),
            lambda: CpuJob(job_id="c1", tenant_id=1, submit_time=0.0, cores=2**31),
            lambda: GpuJob(
                job_id="g1", tenant_id=1, submit_time=0.0, requested_cpus=2**31
            ),
            lambda: GpuJob(
                job_id="g1",
                tenant_id=1,
                submit_time=0.0,
                setup=TrainSetup(num_nodes=2, gpus_per_node=2**30),
            ),
        ],
        ids=["cpu-tenant", "gpu-tenant", "cpu-cores", "gpu-cores", "gpus"],
    )
    def test_rejects_what_a_c_int_cannot_hold(self, make):
        with pytest.raises(ValueError, match="exceeds"):
            make()
