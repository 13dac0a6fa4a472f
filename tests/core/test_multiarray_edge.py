"""Multi-array scheduler edge behaviours."""

from repro.cluster.cluster import Cluster
from repro.config import ClusterConfig, NodeConfig, small_cluster
from repro.core.coda import CodaConfig, CodaScheduler
from repro.experiments.runner import SimulationRunner
from repro.perfmodel.stages import TrainSetup
from repro.workload.job import CpuJob, GpuJob


def _gpu(job_id, tenant=1, gpus=1, nodes=1, model="resnet50", iters=100000, submit=0.0):
    return GpuJob(
        job_id=job_id,
        tenant_id=tenant,
        submit_time=submit,
        model_name=model,
        setup=TrainSetup(nodes, gpus),
        requested_cpus=2,
        total_iterations=iters,
    )


def _cpu(job_id, tenant=18, cores=4, duration=1e6, submit=0.0, bw=50.0, heat=False):
    return CpuJob(
        job_id=job_id,
        tenant_id=tenant,
        submit_time=submit,
        cores=cores,
        duration_s=duration,
        bw_demand_gbps=bw,
        is_heat=heat,
    )


class TestMultiNodeReclaim:
    def test_multi_node_job_aborts_borrowers_on_both_nodes(self):
        """A 2N2G job reclaims reserved cores from CPU borrowers on two
        nodes at once."""
        cluster = Cluster(small_cluster(nodes=2))
        scheduler = CodaScheduler(CodaConfig(reserved_cores=26))
        runner = SimulationRunner(cluster, scheduler, sample_interval_s=600.0)
        # CPU array capacity is 2 cores/node; these jobs must borrow.
        for index in range(2):
            runner.submit_at(0.0, _cpu(f"b{index}", cores=27, bw=1.0))
        runner.engine.run(until=1.0)
        assert len(scheduler._borrowed) == 2
        runner.submit_at(
            2.0, _gpu("gang", gpus=2, nodes=2, model="transformer")
        )
        result_events = runner.engine.run(until=10.0)
        assert cluster.has_allocation("gang")
        assert runner.collector.records["b0"].preempt_count == 1
        assert runner.collector.records["b1"].preempt_count == 1


class TestHalvedCpuJobAccounting:
    def test_halving_frees_cpu_array_capacity_immediately(self):
        """Sec. V-D: 'For the released CPU cores, CODA tries to schedule
        new CPU jobs' — the live accounting must see the halving."""
        cluster = Cluster(
            ClusterConfig(
                node_groups=(
                    (1, NodeConfig(gpus=4, mba_supported=False)),
                )
            )
        )
        scheduler = CodaScheduler(CodaConfig(reserved_cores=16))
        runner = SimulationRunner(cluster, scheduler, sample_interval_s=600.0)
        # Fill the 12-core CPU array with one hog, then contend: a
        # sensitive trainer forces the no-MBA fallback (core halving).
        runner.submit_at(0.0, _cpu("hog", cores=12, bw=100.0, heat=True))
        runner.submit_at(0.0, _gpu("nlp", model="bat", iters=100000))
        runner.submit_at(1.0, _cpu("waiter", cores=6, bw=1.0))
        runner.engine.run(until=300.0)
        assert runner.collector.core_halving_events >= 1
        assert cluster.node(0).share_of("hog").cpus <= 6
        # The freed cores admitted the waiting CPU job.
        assert runner.collector.records["waiter"].first_start is not None


class TestLedgerConsistency:
    def test_preempted_gpu_borrower_releases_its_share(self):
        cluster = Cluster(
            ClusterConfig(
                node_groups=((1, NodeConfig(gpus=4)), (1, NodeConfig(gpus=8)))
            )
        )
        scheduler = CodaScheduler()
        runner = SimulationRunner(cluster, scheduler, sample_interval_s=600.0)
        # Three small jobs; whoever DRF places last overflows onto the
        # big node as a borrower.
        runner.submit_at(0.0, _gpu("small-a", tenant=2, gpus=2))
        runner.submit_at(0.0, _gpu("small-b", tenant=2, gpus=2))
        runner.submit_at(0.0, _gpu("small-c", tenant=1, gpus=2))
        runner.engine.run(until=1.0)
        assert len(scheduler._borrowed) == 1
        borrower_id = next(iter(scheduler._borrowed))
        borrower_tenant = runner.progress.running[borrower_id].job.tenant_id
        # An 8-GPU claimer migrates the borrower off the big node.
        runner.submit_at(2.0, _gpu("claimer", tenant=3, gpus=8))
        runner.engine.run(until=3.0)
        assert cluster.has_allocation("claimer")
        # The tenant's ledger share reflects exactly its *running* jobs:
        # queued (migrated, not yet re-placed) jobs contribute nothing.
        tenants = {"small-a": 2, "small-b": 2, "small-c": 1}
        expected = sum(
            2
            for job_id, tenant in tenants.items()
            if tenant == borrower_tenant and cluster.has_allocation(job_id)
        )
        assert scheduler._gpu_ledger.usage_of(borrower_tenant).gpus == expected


class TestBackfillBound:
    def test_backfill_depth_limits_scan(self):
        cluster = Cluster(small_cluster(nodes=1))
        scheduler = CodaScheduler()
        runner = SimulationRunner(cluster, scheduler, sample_interval_s=600.0)
        # The big queue holds BACKFILL_DEPTH impossible jobs (8 GPUs per
        # node on a 4-GPU cluster) ahead of a feasible 4-GPU job: the
        # bounded scan must not reach it.
        for index in range(scheduler.BACKFILL_DEPTH):
            runner.submit_at(0.0, _gpu(f"impossible{index}", tenant=1, gpus=8))
        runner.submit_at(0.0, _gpu("feasible", tenant=1, gpus=4))
        runner.engine.run(until=10.0)
        assert not cluster.has_allocation("feasible")
