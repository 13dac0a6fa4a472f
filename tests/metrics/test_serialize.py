"""Exact RunResult serialization: the round trip must be byte-stable."""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.experiments.runner import RunResult
from repro.experiments.scenarios import run_scenario, small_scenario
from repro.faults import FaultConfig
from repro.health.config import HealthConfig
from repro.metrics.collector import JobRecord, MetricsCollector
from repro.metrics.serialize import (
    RESULT_SCHEMA_VERSION,
    run_result_from_dict,
    run_result_to_dict,
)
from repro.parallel import RunSpec
from repro.perfmodel.stages import TrainSetup
from repro.sim.state import CheckpointError
from repro.workload.job import CpuJob, GpuJob, JobKind


def _round_trip_is_exact(result):
    first = run_result_to_dict(result)
    rebuilt = run_result_from_dict(json.loads(json.dumps(first)))
    second = run_result_to_dict(rebuilt)
    return json.dumps(first, sort_keys=True) == json.dumps(
        second, sort_keys=True
    )


class TestRoundTrip:
    def test_failure_free_run(self):
        from repro.schedulers.fifo import FifoScheduler

        scenario = small_scenario(duration_days=0.02, nodes=4, seed=1)
        result = run_scenario(scenario, FifoScheduler())
        assert _round_trip_is_exact(result)

    def test_faulted_run_with_health_tracking(self):
        scenario = small_scenario(
            duration_days=0.05, nodes=4, seed=2
        ).with_faults(FaultConfig(seed=3, node_mtbf_s=1800.0))
        spec = RunSpec(
            scenario=scenario,
            scheduler="coda",
            health_config=HealthConfig(quarantine_threshold=1.0),
        )
        result = spec.execute()
        assert _round_trip_is_exact(result)

    def test_rebuilt_result_preserves_scalars(self):
        scenario = small_scenario(duration_days=0.02, nodes=4, seed=1)
        result = RunSpec(scenario=scenario, scheduler="drf").execute()
        rebuilt = run_result_from_dict(run_result_to_dict(result))
        assert rebuilt.scheduler_name == result.scheduler_name
        assert rebuilt.horizon_s == result.horizon_s
        assert rebuilt.finished_gpu_jobs == result.finished_gpu_jobs
        assert rebuilt.events_fired == result.events_fired
        assert rebuilt.flap_suppressions == result.flap_suppressions

    def test_rebuilt_collector_supports_figure_queries(self):
        scenario = small_scenario(duration_days=0.02, nodes=4, seed=1)
        result = RunSpec(scenario=scenario, scheduler="coda").execute()
        rebuilt = run_result_from_dict(run_result_to_dict(result))
        from repro.workload.job import JobKind

        assert rebuilt.collector.queueing_times(
            JobKind.GPU, include_unstarted_until=result.horizon_s
        ) == result.collector.queueing_times(
            JobKind.GPU, include_unstarted_until=result.horizon_s
        )
        assert (
            rebuilt.collector.gpu_utilization.points
            == result.collector.gpu_utilization.points
        )


class TestSchemaGuard:
    def test_wrong_schema_rejected(self):
        scenario = small_scenario(duration_days=0.02, nodes=4, seed=1)
        data = run_result_to_dict(RunSpec(scenario=scenario).execute())
        data["schema"] = RESULT_SCHEMA_VERSION + 1
        with pytest.raises(CheckpointError, match=r"^result\.schema: "):
            run_result_from_dict(data)

    def test_missing_schema_rejected(self):
        scenario = small_scenario(duration_days=0.02, nodes=4, seed=1)
        data = run_result_to_dict(RunSpec(scenario=scenario).execute())
        del data["schema"]
        with pytest.raises(CheckpointError, match=r"^result\.schema: "):
            run_result_from_dict(data)


# --------------------------------------------------------------------- #
# The pinned wire format

#: A schema-3 result: a finished CPU job, a finished two-node GPU job and
#: an unfinished CPU job, with three samples.
FIXTURE = Path(__file__).parent / "data" / "result_v3.json"

FIXTURE_RECORDS = {
    "cpu-1": JobRecord(
        "cpu-1", 3, 0.0, 10.0, 70.5, 1, 0, 0, 4, 4, 0, None, None, JobKind.CPU
    ),
    "gpu-1": JobRecord(
        "gpu-1", 300, 5.0, 5.0, 905.25, 2, 1, 1, 3, 5, 4,
        "resnet50", "2N4G", JobKind.GPU,
    ),
    "cpu-2": JobRecord(
        "cpu-2", 3, 60.0, None, None, 0, 0, 0, 8, None, 0, None, None, JobKind.CPU
    ),
}


def _fixture_result():
    """The run :data:`FIXTURE` records, driven through the collector."""
    collector = MetricsCollector()
    collector.job_submitted(
        CpuJob(job_id="cpu-1", tenant_id=3, submit_time=0.0, cores=4), 0.0
    )
    gpu = GpuJob(
        job_id="gpu-1",
        tenant_id=300,
        submit_time=5.0,
        model_name="resnet50",
        setup=TrainSetup(2, 2),
        requested_cpus=3,
    )
    collector.job_submitted(gpu, 5.0)
    collector.job_started("gpu-1", 5.0, 3)
    collector.job_started("cpu-1", 10.0, 4)
    collector.job_preempted("gpu-1", 30.0)
    collector.job_failed("gpu-1", 40.0)
    collector.job_submitted(
        CpuJob(job_id="cpu-2", tenant_id=3, submit_time=60.0, cores=8), 60.0
    )
    collector.job_started("gpu-1", 65.0, 5)
    collector.job_finished("cpu-1", 70.5)
    collector.job_finished("gpu-1", 905.25)
    for now, depth in ((0.0, 1), (300.0, 0), (600.0, 2)):
        collector.sample_cluster(
            now,
            gpu_active_rate=0.5,
            gpu_utilization=0.25,
            gpu_utilization_overall=0.125,
            cpu_active_rate=now / 1000.0,
            gpu_queue_depth=depth,
            cpu_queue_depth=1,
            free_gpu_fraction=0.75,
            hot_nodes=depth,
        )
    collector.records.seal()
    return RunResult(
        scheduler_name="fifo",
        collector=collector,
        horizon_s=900,
        finished_gpu_jobs=1,
        finished_cpu_jobs=1,
        preemptions=1,
        events_fired=42,
    )


class TestWireFormat:
    def test_the_fixture_decodes_to_known_records(self):
        data = json.loads(FIXTURE.read_text(encoding="utf-8"))
        result = run_result_from_dict(data)
        assert dict(result.collector.records) == FIXTURE_RECORDS
        assert list(result.collector.records) == ["cpu-1", "gpu-1", "cpu-2"]
        assert result.collector.hot_nodes.points == [(0.0, 1), (300.0, 0), (600.0, 2)]
        assert result.collector.fragmentation.samples == [
            (0.0, 0.75, 1), (300.0, 0.75, 0), (600.0, 0.75, 2)
        ]
        assert result.horizon_s == 900 and result.events_fired == 42

    def test_the_same_run_writes_the_fixture_bytes(self):
        written = json.dumps(run_result_to_dict(_fixture_result()), indent=1)
        assert written + "\n" == FIXTURE.read_text(encoding="utf-8")

    def test_a_schema_2_result_is_refused_at_its_schema(self):
        scenario = small_scenario(duration_days=0.02, nodes=4, seed=1)
        data = schema_2_document(RunSpec(scenario=scenario).execute())
        with pytest.raises(CheckpointError) as raised:
            run_result_from_dict(data)
        assert str(raised.value) == "result.schema: expected this run's 3, got 2"


def schema_2_document(result):
    """``result`` as schema 2 wrote it: one object per job, each series
    as ``[time, value]`` points, and the fragmentation samples as rows."""
    data = run_result_to_dict(result)
    collector = result.collector
    data["schema"] = 2
    data["collector"]["records"] = [
        {**dataclasses.asdict(record), "kind": record.kind.value}
        for record in collector.records.values()
    ]
    names = [key for key in data["collector"]["series"] if key in vars(collector)]
    data["collector"]["series"] = {
        name: [list(point) for point in getattr(collector, name).points]
        for name in names
    }
    data["collector"]["fragmentation"] = [
        list(sample) for sample in collector.fragmentation.samples
    ]
    return data
