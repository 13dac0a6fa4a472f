"""The worker supervisor's failure paths.

Chaos is injected through the ``REPRO_TEST_*`` environment hooks, which
spawned workers inherit; scenarios are tiny (spawn overhead dominates),
and every surviving result is asserted byte-identical to a plain serial
execution — supervision must never perturb what a run computes.
"""

import json
import multiprocessing
import os
import signal
import sys
import time
from pathlib import Path

import pytest

from repro.experiments.scenarios import grid_specs, small_scenario
from repro.metrics.serialize import run_result_to_dict
from repro.parallel import SimPool, serial_map
from repro.checkpoint import checkpointed_runner
from repro.sweep import (
    OUTCOME_OK,
    OUTCOME_QUARANTINED,
    SupervisorConfig,
    SupervisorInterrupted,
    cell_checkpoint_dir,
    run_supervised,
    stop_idle_workers,
)
from repro.sweep import supervisor as supervisor_module


def _dumps(result):
    return json.dumps(run_result_to_dict(result), sort_keys=True)


def _payload_dumps(payload):
    return json.dumps(payload, sort_keys=True)


@pytest.fixture
def specs():
    scenario = small_scenario(duration_days=0.01, nodes=4, seed=1)
    return grid_specs(scenario, schedulers=("fifo", "coda"), seeds=(1,))


@pytest.fixture
def four_specs():
    # ~0.1-0.2 s per cell: long enough that two workers spawned together
    # take turns instead of one racing through the batch on a head start.
    scenario = small_scenario(duration_days=2.0, nodes=8, seed=1)
    return grid_specs(scenario, schedulers=("fifo",), seeds=(1, 2, 3, 4))


#: Fast retry schedule so failure tests don't sleep through real backoff.
_FAST = dict(backoff_base_s=0.01, heartbeat_interval_s=0.2)


class _CountingConn:
    """The supervisor's end of a worker pipe, counting assignments."""

    def __init__(self, conn):
        self._conn = conn
        self.assignments = 0

    def send(self, message):
        if message is not None:  # None is the stop message
            self.assignments += 1
        self._conn.send(message)

    def __getattr__(self, name):
        return getattr(self._conn, name)


@pytest.fixture
def launches(monkeypatch):
    """Every worker pipe the supervisor launches, counted per worker.

    Starts with no parked workers, so every worker of the test is
    counted.
    """
    supervisor_module.stop_idle_workers()
    real = supervisor_module._launch
    conns = []

    def counting_launch(context, config):
        process, conn = real(context, config)
        conns.append(_CountingConn(conn))
        return process, conns[-1]

    monkeypatch.setattr(supervisor_module, "_launch", counting_launch)
    return conns


class TestSerialPath:
    def test_poison_spec_quarantined_after_max_retries(
        self, specs, monkeypatch
    ):
        monkeypatch.setenv("REPRO_TEST_RAISE_SPEC", "fifo:s1")
        config = SupervisorConfig(max_retries=2, **_FAST)
        outcomes = run_supervised(specs, jobs=1, config=config)
        poisoned, healthy = outcomes
        assert poisoned.status == OUTCOME_QUARANTINED
        assert poisoned.attempts == 3  # 1 try + 2 retries
        assert len(poisoned.failures) == 3
        assert "injected failure" in poisoned.last_failure
        assert healthy.status == OUTCOME_OK
        assert _payload_dumps(healthy.payload) == _dumps(
            serial_map([specs[1]])[0]
        )

    def test_transient_failure_retried_to_success(
        self, specs, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_TEST_RAISE_SPEC", "fifo:s1")
        monkeypatch.setenv("REPRO_TEST_CRASH_ONCE_DIR", str(tmp_path))
        config = SupervisorConfig(max_retries=2, **_FAST)
        outcomes = run_supervised(specs, jobs=1, config=config)
        assert [o.status for o in outcomes] == [OUTCOME_OK, OUTCOME_OK]
        assert outcomes[0].attempts == 2
        for outcome, result in zip(outcomes, serial_map(specs)):
            assert _payload_dumps(outcome.payload) == _dumps(result)

    def test_events_journal_the_lifecycle(self, specs, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_RAISE_SPEC", "fifo:s1")
        events = []
        config = SupervisorConfig(max_retries=0, **_FAST)
        run_supervised(specs, jobs=1, config=config, on_event=events.append)
        kinds = [(e.kind, e.label) for e in events]
        assert ("attempt", "fifo:s1") in kinds
        assert ("failure", "fifo:s1") in kinds
        assert ("quarantine", "fifo:s1") in kinds
        assert ("ok", "coda:s1") in kinds

    def test_rejects_non_positive_jobs(self, specs):
        with pytest.raises(ValueError, match="jobs"):
            run_supervised(specs, jobs=0)


class TestSpawnedPath:
    def test_worker_sigkilled_mid_run_is_retried(
        self, specs, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_TEST_CRASH_SPEC", "fifo:s1")
        monkeypatch.setenv("REPRO_TEST_CRASH_MODE", "kill")
        monkeypatch.setenv("REPRO_TEST_CRASH_ONCE_DIR", str(tmp_path))
        config = SupervisorConfig(max_retries=2, **_FAST)
        outcomes = run_supervised(specs, jobs=2, config=config)
        crashed, healthy = outcomes
        assert crashed.status == OUTCOME_OK
        assert crashed.attempts == 2
        assert "worker crashed" in crashed.failures[0]
        assert healthy.status == OUTCOME_OK
        for outcome, result in zip(outcomes, serial_map(specs)):
            assert _payload_dumps(outcome.payload) == _dumps(result)

    def test_run_timeout_kills_and_retries(
        self, specs, tmp_path, monkeypatch
    ):
        # "hang" keeps heartbeats flowing while the run never finishes —
        # only the run timeout can catch it.
        monkeypatch.setenv("REPRO_TEST_CRASH_SPEC", "coda:s1")
        monkeypatch.setenv("REPRO_TEST_CRASH_MODE", "hang")
        monkeypatch.setenv("REPRO_TEST_CRASH_ONCE_DIR", str(tmp_path))
        config = SupervisorConfig(
            max_retries=1, run_timeout_s=3.0, **_FAST
        )
        outcomes = run_supervised(specs, jobs=2, config=config)
        healthy, hung = outcomes
        assert hung.status == OUTCOME_OK
        assert hung.attempts == 2
        assert "exceeded timeout" in hung.failures[0]
        assert healthy.status == OUTCOME_OK
        for outcome, result in zip(outcomes, serial_map(specs)):
            assert _payload_dumps(outcome.payload) == _dumps(result)

    def test_silent_worker_presumed_hung_and_killed(
        self, specs, tmp_path, monkeypatch
    ):
        # SIGSTOP freezes the heartbeat thread too: liveness detection,
        # not the run timeout, must reap this one.
        monkeypatch.setenv("REPRO_TEST_CRASH_SPEC", "fifo:s1")
        monkeypatch.setenv("REPRO_TEST_CRASH_MODE", "stop")
        monkeypatch.setenv("REPRO_TEST_CRASH_ONCE_DIR", str(tmp_path))
        config = SupervisorConfig(
            max_retries=1,
            heartbeat_interval_s=0.2,
            heartbeat_timeout_s=2.0,
            backoff_base_s=0.01,
        )
        outcomes = run_supervised(specs, jobs=2, config=config)
        stopped = outcomes[0]
        assert stopped.status == OUTCOME_OK
        assert stopped.attempts == 2
        assert "no heartbeat" in stopped.failures[0]

    def test_poison_spec_quarantined_but_batch_completes(
        self, specs, monkeypatch
    ):
        monkeypatch.setenv("REPRO_TEST_CRASH_SPEC", "fifo:s1")
        monkeypatch.setenv("REPRO_TEST_CRASH_MODE", "kill")
        config = SupervisorConfig(max_retries=1, **_FAST)
        outcomes = run_supervised(specs, jobs=2, config=config)
        poisoned, healthy = outcomes
        assert poisoned.status == OUTCOME_QUARANTINED
        assert poisoned.attempts == 2
        assert poisoned.payload is None
        assert healthy.status == OUTCOME_OK
        assert _payload_dumps(healthy.payload) == _dumps(
            serial_map([specs[1]])[0]
        )

    def test_spawn_failures_degrade_to_serial(self, specs, monkeypatch):
        def broken_launch(context, config):
            raise OSError("fork: resource temporarily unavailable")

        monkeypatch.setattr(supervisor_module, "_launch", broken_launch)
        events = []
        config = SupervisorConfig(
            max_retries=0, spawn_failure_limit=2, poll_interval_s=0.01,
            **_FAST,
        )
        outcomes = run_supervised(
            specs, jobs=2, config=config, on_event=events.append
        )
        assert [e.kind for e in events].count("degrade") == 1
        assert "spawn" in next(
            e.reason for e in events if e.kind == "degrade"
        )
        # The serial fallback still completed every run, with the
        # aborted spawn attempts un-charged.
        assert [o.status for o in outcomes] == [OUTCOME_OK, OUTCOME_OK]
        assert [o.attempts for o in outcomes] == [1, 1]
        for outcome, result in zip(outcomes, serial_map(specs)):
            assert _payload_dumps(outcome.payload) == _dumps(result)


class TestWorkerLifecycle:
    """Workers outlive one spec: spawn once, serve many, die alone."""

    def test_clean_batch_reuses_one_worker_per_slot(
        self, four_specs, launches
    ):
        outcomes = run_supervised(four_specs, jobs=2)
        assert len(launches) == 2
        # Dispatch goes to whichever worker is free, so the two workers
        # share the four specs but need not split them evenly.
        assert sum(conn.assignments for conn in launches) == 4
        assert [o.attempts for o in outcomes] == [1, 1, 1, 1]
        for outcome, result in zip(outcomes, serial_map(four_specs)):
            assert _payload_dumps(outcome.payload) == _dumps(result)

    def test_worker_killed_on_its_second_spec_is_replaced(
        self, four_specs, launches, tmp_path, monkeypatch
    ):
        # The third cell only ever goes to a worker that finished one.
        monkeypatch.setenv("REPRO_TEST_CRASH_SPEC", "fifo:s3")
        monkeypatch.setenv("REPRO_TEST_CRASH_MODE", "kill")
        monkeypatch.setenv("REPRO_TEST_CRASH_ONCE_DIR", str(tmp_path))
        config = SupervisorConfig(max_retries=1, **_FAST)
        outcomes = run_supervised(four_specs, jobs=2, config=config)
        assert len(launches) == 3
        crashed = outcomes[2]
        assert crashed.status == OUTCOME_OK
        assert crashed.attempts == 2
        assert "worker crashed" in crashed.failures[0]
        assert [o.attempts for i, o in enumerate(outcomes) if i != 2] == [
            1, 1, 1,
        ]
        for outcome, result in zip(outcomes, serial_map(four_specs)):
            assert _payload_dumps(outcome.payload) == _dumps(result)

    def test_hang_on_a_reused_worker_hits_the_run_timeout(
        self, four_specs, launches, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_TEST_CRASH_SPEC", "fifo:s3")
        monkeypatch.setenv("REPRO_TEST_CRASH_MODE", "hang")
        monkeypatch.setenv("REPRO_TEST_CRASH_ONCE_DIR", str(tmp_path))
        config = SupervisorConfig(max_retries=1, run_timeout_s=3.0, **_FAST)
        outcomes = run_supervised(four_specs, jobs=2, config=config)
        hung = outcomes[2]
        assert hung.status == OUTCOME_OK
        assert hung.attempts == 2
        assert "exceeded timeout" in hung.failures[0]
        # By then the other worker is idle, so the retry reuses it
        # instead of spawning a replacement.
        assert len(launches) == 2
        for outcome, result in zip(outcomes, serial_map(four_specs)):
            assert _payload_dumps(outcome.payload) == _dumps(result)


def _parked_processes():
    return [worker.process for worker in supervisor_module._parked]


class TestParkedWorkers:
    """Idle workers outlive the batch and serve the next one."""

    def test_second_batch_launches_nothing(self, specs, launches):
        serial = [_dumps(result) for result in serial_map(specs)]
        first = run_supervised(specs, jobs=2)
        assert len(launches) == 2
        second = run_supervised(specs, jobs=2)
        assert len(launches) == 2
        assert sum(conn.assignments for conn in launches) == 4
        for outcomes in (first, second):
            assert [o.attempts for o in outcomes] == [1, 1]
            assert [_payload_dumps(o.payload) for o in outcomes] == serial

    @pytest.mark.parametrize(
        "change", ["environment", "sys.path", "cwd", "config"]
    )
    def test_changed_inheritance_forces_fresh_workers(
        self, specs, launches, monkeypatch, tmp_path, change
    ):
        run_supervised(specs, jobs=2)
        parked = _parked_processes()
        config = None
        if change == "environment":
            # Inert: no cell carries this label.
            monkeypatch.setenv("REPRO_TEST_RAISE_SPEC", "none:s0")
        elif change == "sys.path":
            monkeypatch.setattr(sys, "path", sys.path + [str(tmp_path)])
        elif change == "cwd":
            monkeypatch.chdir(tmp_path)
        else:
            config = SupervisorConfig(seed=1)
        outcomes = run_supervised(specs, jobs=2, config=config)
        assert len(launches) == 4
        assert not any(process.is_alive() for process in parked)
        assert [o.attempts for o in outcomes] == [1, 1]
        for outcome, result in zip(outcomes, serial_map(specs)):
            assert _payload_dumps(outcome.payload) == _dumps(result)

    def test_worker_killed_while_parked_is_replaced_free(
        self, specs, launches
    ):
        run_supervised(specs, jobs=2)
        victim = _parked_processes()[0]
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=5.0)
        outcomes = run_supervised(specs, jobs=2)
        assert len(launches) == 3
        assert [o.attempts for o in outcomes] == [1, 1]
        for outcome, result in zip(outcomes, serial_map(specs)):
            assert _payload_dumps(outcome.payload) == _dumps(result)

    def test_parked_worker_is_silent(self, specs):
        config = SupervisorConfig(heartbeat_interval_s=0.05)
        run_supervised(specs, jobs=2, config=config)
        time.sleep(0.5)  # ten heartbeat intervals
        parked = supervisor_module._parked
        assert len(parked) == 2
        assert not any(worker.conn.poll() for worker in parked)

    def test_stop_idle_workers_leaves_no_process(self, specs):
        run_supervised(specs, jobs=2)
        parked = _parked_processes()
        assert len(parked) == 2
        stop_idle_workers()
        assert supervisor_module._parked == []
        assert [process.exitcode for process in parked] == [0, 0]
        assert multiprocessing.active_children() == []

    def test_interrupted_batch_parks_nothing(self, specs):
        def interrupt(event):
            if event.kind == "ok":
                raise KeyboardInterrupt

        with pytest.raises(SupervisorInterrupted):
            run_supervised(specs, jobs=2, on_event=interrupt)
        assert supervisor_module._parked == []
        assert multiprocessing.active_children() == []


class TestSimPoolIntegration:
    def test_supervised_pool_matches_serial(self, specs):
        pool = SimPool(jobs=2, supervisor=SupervisorConfig(**_FAST))
        results = pool.map(specs)
        for result, expected in zip(results, serial_map(specs)):
            assert _dumps(result) == _dumps(expected)

    def test_quarantine_raises_because_map_promises_results(
        self, specs, monkeypatch
    ):
        monkeypatch.setenv("REPRO_TEST_CRASH_SPEC", "fifo:s1")
        monkeypatch.setenv("REPRO_TEST_CRASH_MODE", "kill")
        pool = SimPool(
            jobs=2,
            supervisor=SupervisorConfig(max_retries=0, **_FAST),
        )
        with pytest.raises(RuntimeError, match="quarantined"):
            pool.map(specs)


class TestCheckpointAwareRetry:
    """Retries resume from the cell's newest checkpoint, byte-identically."""

    def _config(self, root, **extra):
        return SupervisorConfig(
            checkpoint_dir=str(root),
            max_retries=2,
            **_FAST,
            **extra,
        )

    def test_preseeded_checkpoint_restored_and_result_identical(
        self, specs, tmp_path
    ):
        spec = specs[1]  # coda:s1 — the long cell
        cell = cell_checkpoint_dir(str(tmp_path), spec.label())
        checkpointed_runner(
            spec, checkpoint_dir=cell, checkpoint_every_events=40
        ).run(until=spec.resolved_scenario().horizon_s)
        events = []
        outcomes = run_supervised(
            specs, jobs=1, config=self._config(tmp_path),
            on_event=events.append,
        )
        assert [o.status for o in outcomes] == [OUTCOME_OK, OUTCOME_OK]
        restored = [e for e in events if e.kind == "restored"]
        assert [e.label for e in restored] == [spec.label()]
        assert "ckpt-" in restored[0].reason
        for outcome, result in zip(outcomes, serial_map(specs)):
            assert _payload_dumps(outcome.payload) == _dumps(result)

    def test_damaged_checkpoint_falls_back_to_scratch(self, specs, tmp_path):
        spec = specs[1]
        cell = Path(cell_checkpoint_dir(str(tmp_path), spec.label()))
        cell.mkdir(parents=True)
        (cell / "ckpt-000000000120.json").write_text("garbage")
        events = []
        outcomes = run_supervised(
            specs, jobs=1, config=self._config(tmp_path),
            on_event=events.append,
        )
        assert [o.status for o in outcomes] == [OUTCOME_OK, OUTCOME_OK]
        fallback = [e for e in events if e.kind == "checkpoint-fallback"]
        assert [e.label for e in fallback] == [spec.label()]
        assert "starting from scratch" in fallback[0].reason
        assert not any(e.kind == "restored" for e in events)
        for outcome, result in zip(outcomes, serial_map(specs)):
            assert _payload_dumps(outcome.payload) == _dumps(result)

    def test_midrun_kill_resumes_from_checkpoint(
        self, specs, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_TEST_CRASH_SPEC", "coda:s1")
        monkeypatch.setenv("REPRO_TEST_CRASH_MODE", "midrun")
        monkeypatch.setenv("REPRO_TEST_CRASH_EVENT", "120")
        monkeypatch.setenv("REPRO_TEST_CRASH_ONCE_DIR", str(tmp_path / "once"))
        events = []
        config = self._config(
            tmp_path / "ckpts", checkpoint_every_events=40
        )
        outcomes = run_supervised(
            specs, jobs=2, config=config, on_event=events.append
        )
        healthy, crashed = outcomes
        assert crashed.status == OUTCOME_OK
        assert crashed.attempts == 2
        assert "worker crashed" in crashed.failures[0]
        restored = [e for e in events if e.kind == "restored"]
        assert [e.label for e in restored] == ["coda:s1"]
        assert healthy.status == OUTCOME_OK
        for outcome, result in zip(outcomes, serial_map(specs)):
            assert _payload_dumps(outcome.payload) == _dumps(result)


class TestInterrupt:
    def test_serial_interrupt_raises_with_partial_outcomes(
        self, specs, monkeypatch
    ):
        real = supervisor_module._execute_attempt

        def fake(spec, config, notify=None):
            if spec.label() == "coda:s1":
                raise KeyboardInterrupt
            return real(spec, config, notify)

        monkeypatch.setattr(supervisor_module, "_execute_attempt", fake)
        with pytest.raises(SupervisorInterrupted) as info:
            run_supervised(specs, jobs=1)
        first, unsettled = info.value.outcomes
        assert first.status == OUTCOME_OK
        assert unsettled.status == ""  # left for the service to journal
