"""A finished run leaves no reference cycles behind.

:meth:`SimulationRunner.run` is terminal: it detaches the runner from
everything that holds it back (event actions, engine observers, pressure
watches, the completion callback, the scheduler's, fault injector's and
auditor's runner handles).  So with the cyclic collector off, dropping
the last reference to a finished runner frees it, and everything it
built, by refcount alone: the engine's declared timer table, whose bound
handlers reach every component that owns a timer, included.
"""

import gc
import weakref

import pytest

from repro.checkpoint import checkpointed_runner
from repro.experiments.scenarios import small_scenario
from repro.faults import FaultConfig
from repro.health import HealthConfig
from repro.parallel.spec import RunSpec

POLICIES = ("fifo", "drf", "coda")
MODES = ("plain", "audited", "reference", "checkpointing", "restored")

#: Every fault channel, so kills, requeues, quarantines, telemetry
#: outages and straggler timers are all live when the run ends.
FAULTS = FaultConfig(
    seed=3,
    node_mtbf_s=1800.0,
    node_mttr_s=600.0,
    gpu_mtbf_s=3600.0,
    telemetry_mtbf_s=1200.0,
    straggler_interval_s=900.0,
)


def _spec(policy, faulted):
    scenario = small_scenario(duration_days=0.05, seed=2, nodes=4)
    if not faulted:
        return RunSpec(scenario=scenario, scheduler=policy)
    return RunSpec(
        scenario=scenario.with_faults(FAULTS),
        scheduler=policy,
        health_config=HealthConfig(),
    )


def _horizon(spec):
    return spec.resolved_scenario().horizon_s


def _runner(spec, mode, tmp_path, monkeypatch):
    """``spec``'s runner: plain, under the ``REPRO_AUDIT`` auditor, in
    ``REPRO_REFERENCE`` mode (which arms and cancels other timers), with
    a checkpoint writer, or restored from a mid-run checkpoint."""
    if mode == "audited":
        monkeypatch.setenv("REPRO_AUDIT", "1")
    if mode == "reference":
        monkeypatch.setenv("REPRO_REFERENCE", "1")
    if mode in ("plain", "audited", "reference"):
        return spec.build_runner()
    directory = tmp_path / "ckpt"
    directory.mkdir()
    writer = checkpointed_runner(
        spec, checkpoint_dir=str(directory), checkpoint_every_events=40
    )
    if mode == "checkpointing":
        return writer
    writer.run(until=_horizon(spec))
    del writer
    checkpoints = sorted(directory.iterdir())
    assert checkpoints
    return checkpointed_runner(
        spec, restore_from=str(checkpoints[len(checkpoints) // 2])
    )


@pytest.fixture
def collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("faulted", (False, True), ids=("clean", "faulted"))
@pytest.mark.parametrize("policy", POLICIES)
def test_finished_runner_frees_by_refcount(
    policy, faulted, mode, tmp_path, monkeypatch, collector_off
):
    spec = _spec(policy, faulted)
    runner = _runner(spec, mode, tmp_path, monkeypatch)
    parts = {
        name: weakref.ref(part)
        for name, part in (
            ("runner", runner),
            ("engine", runner.engine),
            ("cluster", runner.cluster),
            ("scheduler", runner.scheduler),
            ("progress", runner.progress),
            # The declared timer table holds every family's bound handler.
            ("timers", runner.engine._timers),
        )
    }
    result = runner.run(until=_horizon(spec))
    assert result.events_fired > 0
    del runner
    assert [name for name, ref in parts.items() if ref() is not None] == []


def test_run_is_terminal_and_leaves_state_readable():
    spec = _spec("coda", faulted=True)
    runner = spec.build_runner()
    horizon = _horizon(spec)
    result = runner.run(until=horizon)
    assert runner.engine.now == horizon
    assert runner.engine.fired == result.events_fired
    assert runner.engine.pending > 0
    assert len(runner.scheduler.dead_jobs) == result.dead_jobs
    assert runner.cluster.used.gpus == sum(
        node.used_gpus for node in runner.cluster.nodes
    )
    with pytest.raises(RuntimeError):
        runner.run(until=horizon)
    assert runner.engine.fired == result.events_fired
