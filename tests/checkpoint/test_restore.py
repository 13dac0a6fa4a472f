"""Whole-simulation restore: byte-identical resume, loud mismatches.

The tentpole guarantee: kill a simulation at an arbitrary event, restore
from its snapshot, run to the horizon — the serialized
:class:`RunResult` is byte-for-byte what the uninterrupted run produces,
with fault injection, health tracking, and CODA's allocator/eliminator
all live.
"""

import json

import pytest

from repro.checkpoint import (
    CheckpointError,
    CheckpointWriter,
    checkpoint_path,
    checkpointed_runner,
    latest_checkpoint,
    read_checkpoint,
    restore_run,
    snapshot_run,
    write_checkpoint,
)
from repro.experiments.scenarios import small_scenario
from repro.faults import FaultConfig
from repro.health import HealthConfig
from repro.metrics.serialize import run_result_to_dict
from repro.parallel.spec import RunSpec
from repro.workload.job import CpuJob


def _dumps(result):
    return json.dumps(run_result_to_dict(result), sort_keys=True)


def _run_checkpointed(spec, **options):
    runner = checkpointed_runner(spec, **options)
    return runner.run(until=spec.resolved_scenario().horizon_s)


def _plain_spec(scheduler="coda", seed=2):
    scenario = small_scenario(duration_days=0.05, seed=seed, nodes=4)
    return RunSpec(scenario=scenario, scheduler=scheduler)


def _faulted_spec(scheduler="coda"):
    scenario = small_scenario(duration_days=0.05, seed=2, nodes=4).with_faults(
        FaultConfig(
            seed=3,
            node_mtbf_s=1800.0,
            node_mttr_s=600.0,
            gpu_mtbf_s=3600.0,
            telemetry_mtbf_s=1200.0,
            straggler_interval_s=900.0,
        )
    )
    return RunSpec(
        scenario=scenario, scheduler=scheduler, health_config=HealthConfig()
    )


def _snapshot_at(spec, kill_at):
    """Run ``spec`` for ``kill_at`` events (clock untouched past the
    horizon) and snapshot the torn-mid-run state."""
    runner = spec.build_runner()
    runner.enable_sampling()  # match run(): the sampler is part of the trajectory
    horizon = spec.resolved_scenario().horizon_s
    while runner.engine.fired < kill_at:
        next_time = runner.engine.peek_time()
        if next_time is None or next_time > horizon:
            break
        runner.engine.step()
    return snapshot_run(runner, spec)


def _resume_to_completion(spec, state):
    runner = restore_run(spec, state)
    return runner.run(until=spec.resolved_scenario().horizon_s)


class TestByteIdenticalResume:
    def test_fault_free_resume_matches_uninterrupted_run(self, tmp_path):
        spec = _plain_spec()
        state = _snapshot_at(spec, kill_at=80)
        path = checkpoint_path(str(tmp_path), 80)
        write_checkpoint(path, state)  # full disk round trip, not a dict copy
        resumed = _resume_to_completion(spec, read_checkpoint(path))
        assert _dumps(resumed) == _dumps(spec.execute())

    @pytest.mark.parametrize("scheduler", ["fifo", "drf", "coda"])
    def test_faulted_resume_matches_across_schedulers(self, scheduler):
        spec = _faulted_spec(scheduler)
        baseline = _dumps(spec.execute())
        for kill_at in (40, 110):
            state = _snapshot_at(spec, kill_at)
            assert _dumps(_resume_to_completion(spec, state)) == baseline

    def test_resume_carries_unaccrued_progress(self):
        """Progress accrues only when a job's speed changes, so a
        mid-run snapshot holds jobs whose ``last_update`` lies in the
        past; the restored run must leave them unaccrued, exactly as
        the uninterrupted run does."""
        spec = _faulted_spec()
        state = _snapshot_at(spec, kill_at=110)
        now = state["engine"]["now"]
        runner = restore_run(spec, state)
        assert any(
            isinstance(record.job, CpuJob) and record.last_update < now
            for record in runner.progress.running.values()
        )

        def progress():
            return {
                job_id: (record.work_done, record.last_update)
                for job_id, record in runner.progress.running.items()
            }

        before = progress()
        runner.progress.touch(set(range(len(runner.cluster.nodes))))
        assert progress() == before
        result = runner.run(until=spec.resolved_scenario().horizon_s)
        assert _dumps(result) == _dumps(spec.execute())

    def test_restore_with_live_borrowers_rebuilds_the_cpu_census(self):
        """At event 352 a small GPU job borrows a 4-GPU sub-array node
        that also hosts two tracked CPU jobs.  The restore rebuilds the
        CPU census from the restored tracked jobs, so the census equals a
        cluster walk before the first resumed event, and the resumed run
        is the uninterrupted one."""
        spec = _faulted_spec()
        runner = restore_run(spec, _snapshot_at(spec, kill_at=352))
        scheduler = runner.scheduler
        assert scheduler._borrowed and scheduler._tracked
        assert scheduler._cpu_used
        assert scheduler._cpu_used == scheduler._cpu_census_build(
            runner.cluster, set()
        )
        result = runner.run(until=spec.resolved_scenario().horizon_s)
        assert _dumps(result) == _dumps(spec.execute())

    def test_periodic_checkpoints_do_not_perturb_the_run(self, tmp_path):
        spec = _faulted_spec()
        observed = _run_checkpointed(
            spec,
            checkpoint_dir=str(tmp_path),
            checkpoint_every_events=50,
        )
        assert _dumps(observed) == _dumps(spec.execute())
        assert latest_checkpoint(str(tmp_path)) is not None

    def test_resume_from_newest_periodic_checkpoint_matches(self, tmp_path):
        spec = _faulted_spec()
        baseline = _dumps(
            _run_checkpointed(
                spec,
                checkpoint_dir=str(tmp_path),
                checkpoint_every_events=60,
            )
        )
        resumed = _run_checkpointed(
            spec, restore_from=latest_checkpoint(str(tmp_path))
        )
        assert _dumps(resumed) == baseline


def test_restore_generates_the_trace_once(monkeypatch):
    from repro.experiments import scenarios

    spec = _plain_spec()
    state = _snapshot_at(spec, kill_at=80)
    real = scenarios.generate_trace
    configs = []

    def counted(config):
        configs.append(config)
        return real(config)

    monkeypatch.setattr(scenarios, "generate_trace", counted)
    restore_run(spec, state)
    assert len(configs) == 1


def test_cluster_load_bumps_the_generation_for_its_allocations(monkeypatch):
    """The loader writes ``Cluster._allocations`` through the declared
    schema, past every mutator, so the cluster's own load hook must count
    that write as an unattributed change: one generation bump per node
    (each node's hook) plus one for the cluster's allocations.  The value
    the checkpoint carried is pinned after the bumps."""
    from repro.cluster.node import GenerationCounter

    spec = _faulted_spec()
    state = _snapshot_at(spec, kill_at=200)
    real = GenerationCounter.bump
    bumped = []

    def counted(counter):
        bumped.append(counter)
        real(counter)

    monkeypatch.setattr(GenerationCounter, "bump", counted)
    cluster = restore_run(spec, state).cluster
    assert len(bumped) == len(cluster.nodes) + 1
    assert cluster.version == state["cluster"]["generation"]


class TestLoudFailures:
    def test_restore_against_a_different_trace_raises(self, tmp_path):
        state = _snapshot_at(_plain_spec(seed=2), kill_at=80)
        with pytest.raises(CheckpointError, match="does not restore"):
            restore_run(_plain_spec(seed=5), state)

    def test_resume_from_damaged_checkpoint_raises(self, tmp_path):
        path = tmp_path / "ckpt-000000000080.json"
        path.write_text("garbage", encoding="utf-8")
        with pytest.raises(CheckpointError):
            checkpointed_runner(_plain_spec(), restore_from=str(path))

    def test_checkpoint_without_fault_state_rejected_by_faulted_spec(self):
        state = _snapshot_at(_plain_spec(), kill_at=40)
        assert "faults" not in state
        with pytest.raises(CheckpointError):
            restore_run(_faulted_spec(), state)

    @pytest.mark.parametrize("family", ["gpu-done", "cpu-done"])
    def test_running_job_without_a_completion_event_raises(self, family):
        state = _snapshot_at(_plain_spec(), kill_at=110)
        live = state["engine"]["live"]
        dropped = next(e for e in live if e[3].startswith(f"{family}:"))
        live.remove(dropped)
        job_id = dropped[3].partition(":")[2]
        with pytest.raises(
            CheckpointError, match=f"job {job_id} without a completion event"
        ):
            restore_run(_plain_spec(), state)

    def test_writer_rejects_non_positive_interval(self, tmp_path):
        runner = _plain_spec().build_runner()
        with pytest.raises(ValueError, match="interval"):
            CheckpointWriter(runner, str(tmp_path), 0)
