"""User-facing inference jobs outrank training (Sec. V-A).

"DNN training jobs have higher priority than all CPU jobs on GPU clusters
except the user-facing inference jobs."  Three consequences, each tested:
the eliminator never throttles inference; the multi-array scheduler never
aborts it; and it starts promptly even when the reserved cores are all
that is left.
"""

import pytest

from repro.cluster.cluster import Cluster
from repro.config import ClusterConfig, NodeConfig, small_cluster
from repro.core.coda import CodaConfig, CodaScheduler
from repro.core.eliminator import EliminatorConfig
from repro.experiments.runner import SimulationRunner
from repro.perfmodel.stages import TrainSetup
from repro.workload.job import CpuJob, GpuJob
from repro.workload.tracegen import TraceConfig, generate_trace


def _inference(job_id, cores=2, duration=600.0, bw=0.5, submit=0.0, tenant=9):
    return CpuJob(
        job_id=job_id,
        tenant_id=tenant,
        submit_time=submit,
        cores=cores,
        duration_s=duration,
        bw_demand_gbps=bw,
        is_inference=True,
    )


def _gpu(job_id, model="bat", iters=5000, submit=0.0, gpus=1):
    return GpuJob(
        job_id=job_id,
        tenant_id=1,
        submit_time=submit,
        model_name=model,
        setup=TrainSetup(1, gpus),
        requested_cpus=5,
        total_iterations=iters,
    )


class TestJobValidation:
    def test_cannot_be_heat_and_inference(self):
        with pytest.raises(ValueError):
            CpuJob(
                job_id="x", tenant_id=1, submit_time=0.0,
                is_heat=True, is_inference=True,
            )


class TestEliminatorExemption:
    def test_inference_is_never_the_victim(self):
        """Even a bandwidth-hungry inference job is not throttled; with no
        other candidate the eliminator stands down."""
        cluster = Cluster(
            ClusterConfig(
                node_groups=((1, NodeConfig(gpus=4, mem_bandwidth_gbps=110.0)),)
            )
        )
        scheduler = CodaScheduler(
            CodaConfig(eliminator=EliminatorConfig(monitor_interval_s=30.0))
        )
        runner = SimulationRunner(cluster, scheduler, sample_interval_s=600.0)
        runner.submit_at(0.0, _gpu("nlp"))
        runner.submit_at(
            1.0, _inference("serving", cores=8, duration=1e6, bw=96.0)
        )
        runner.engine.run(until=600.0)
        node = cluster.nodes[0]
        assert node.bandwidth.pressure > 0.75
        assert scheduler.eliminator.throttle_actions == 0
        assert node.mba.throttle_level("serving") == 1.0


class TestNeverAborted:
    def test_training_does_not_reclaim_inference_cores(self):
        """A training job that would need the inference job's cores queues
        instead of aborting it."""
        cluster = Cluster(
            ClusterConfig(node_groups=((1, NodeConfig(cores=8, gpus=4)),))
        )
        scheduler = CodaScheduler(CodaConfig(reserved_cores=6))
        runner = SimulationRunner(cluster, scheduler, sample_interval_s=600.0)
        # Inference takes 7 of 8 cores (reserved included — it may).
        runner.submit_at(0.0, _inference("serving", cores=7, duration=2000.0))
        runner.engine.run(until=1.0)
        assert cluster.has_allocation("serving")
        runner.submit_at(2.0, _gpu("train", model="transformer", iters=50))
        runner.engine.run(until=100.0)
        # The trainer slims onto the single remaining core rather than
        # aborting the inference job.
        assert cluster.has_allocation("serving")
        if cluster.has_allocation("train"):
            assert cluster.allocation_of("train").shares[0].cpus == 1
        assert runner.collector.records["serving"].preempt_count == 0

    def test_normal_borrowers_still_get_aborted(self):
        """Sanity check that the exemption is inference-specific."""
        cluster = Cluster(
            ClusterConfig(node_groups=((1, NodeConfig(cores=8, gpus=4)),))
        )
        scheduler = CodaScheduler(CodaConfig(reserved_cores=6))
        runner = SimulationRunner(cluster, scheduler, sample_interval_s=600.0)
        normal = CpuJob(
            job_id="batch", tenant_id=9, submit_time=0.0, cores=7,
            duration_s=2000.0,
        )
        runner.submit_at(0.0, normal)
        runner.engine.run(until=1.0)
        assert "batch" in scheduler._borrowed
        runner.submit_at(2.0, _gpu("train", model="bat", iters=50))
        runner.engine.run(until=100.0)
        assert runner.collector.records["batch"].preempt_count >= 1


class TestPromptScheduling:
    def test_inference_uses_reserved_cores_despite_gpu_backlog(self):
        """Borrowing normally requires an idle GPU queue; inference is
        exempt from that condition too."""
        cluster = Cluster(small_cluster(nodes=1))
        scheduler = CodaScheduler(CodaConfig(reserved_cores=26))
        runner = SimulationRunner(cluster, scheduler, sample_interval_s=600.0)
        # CPU-array capacity is 2 cores; keep the GPU queue non-empty with
        # an impossible job.
        runner.submit_at(0.0, _gpu("stuck", gpus=8))
        runner.submit_at(0.0, _inference("serving", cores=6, duration=60.0))
        runner.engine.run(until=10.0)
        record = runner.collector.records["serving"]
        assert record.first_start is not None
        assert record.queueing_time == 0.0

    def test_inference_drains_before_normal_cpu_jobs(self):
        cluster = Cluster(ClusterConfig(node_groups=((1, NodeConfig(cores=8, gpus=0)),)))
        scheduler = CodaScheduler()
        runner = SimulationRunner(cluster, scheduler, sample_interval_s=600.0)
        # Saturate, then submit one of each at the same instant.
        runner.submit_at(0.0, CpuJob(job_id="hog", tenant_id=8, submit_time=0.0,
                                     cores=8, duration_s=100.0))
        runner.submit_at(
            1.0,
            CpuJob(job_id="batch", tenant_id=8, submit_time=1.0, cores=8,
                   duration_s=50.0),
        )
        runner.submit_at(2.0, _inference("serving", cores=8, duration=50.0))
        # A horizon is required: the eliminator's monitor re-arms forever.
        runner.engine.run(until=1000.0)
        batch = runner.collector.records["batch"]
        serving = runner.collector.records["serving"]
        assert serving.first_start < batch.first_start


class TestTraceGeneration:
    def test_inference_fraction(self):
        trace = generate_trace(
            TraceConfig(duration_days=1.0, gpu_jobs_per_day=0.0, seed=6)
        )
        inference = [j for j in trace.cpu_jobs if j.is_inference]
        fraction = len(inference) / len(trace.cpu_jobs)
        assert fraction == pytest.approx(0.3, abs=0.05)

    def test_inference_jobs_are_short_and_narrow(self):
        trace = generate_trace(
            TraceConfig(duration_days=0.5, gpu_jobs_per_day=0.0, seed=6)
        )
        for job in trace.cpu_jobs:
            if job.is_inference:
                assert job.cores <= 2
                assert job.duration_s <= 1800.0
                assert not job.is_heat

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            TraceConfig(inference_fraction=1.2)
        with pytest.raises(ValueError):
            TraceConfig(heat_fraction=0.5, inference_fraction=0.6)

    def test_round_trip_preserves_inference_flag(self, tmp_path):
        from repro.workload.traceio import load_trace, save_trace

        trace = generate_trace(
            TraceConfig(duration_days=0.05, gpu_jobs_per_day=0.0, seed=6)
        )
        path = tmp_path / "t.jsonl"
        save_trace(trace, path)
        loaded = load_trace(path)
        originals = {j.job_id: j.is_inference for j in trace.cpu_jobs}
        for job in loaded.cpu_jobs:
            assert job.is_inference == originals[job.job_id]
