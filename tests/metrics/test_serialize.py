"""Exact RunResult serialization: the round trip must be byte-stable."""

import json

import pytest

from repro.experiments.scenarios import run_scenario, small_scenario
from repro.faults import FaultConfig
from repro.health.config import HealthConfig
from repro.metrics.serialize import (
    RESULT_SCHEMA_VERSION,
    run_result_from_dict,
    run_result_to_dict,
)
from repro.parallel import RunSpec
from repro.sim.state import CheckpointError


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
