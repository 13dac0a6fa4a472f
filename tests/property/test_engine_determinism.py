"""Determinism properties: same seed, same history — faults included.

The engine's (time, priority, seq) total order plus tombstone
cancellation must make any seeded driver — including one that cancels
events from inside callbacks — replay identically.  The same property
must survive the fault injector, whose whole design (named RNG streams,
sorted victim selection) exists to keep it true.
"""

import random

from repro.core.coda import CodaScheduler
from repro.experiments.scenarios import run_scenario, small_scenario
from repro.faults import FaultConfig
from repro.sim.engine import Engine
from repro.sim.events import EventPriority


def _drive(seed: int, steps: int = 400):
    """Random schedule/cancel interleavings, logged as (time, label)."""
    rng = random.Random(seed)
    engine = Engine()
    log = []
    live = []

    def fire(label):
        log.append((engine.now, label))
        # Callbacks themselves reschedule and cancel, the way schedulers do.
        roll = rng.random()
        if roll < 0.3:
            nested = f"{label}+"
            live.append(
                engine.schedule(
                    engine.now + rng.uniform(0.1, 20.0),
                    lambda: fire(nested),
                    priority=rng.choice(list(EventPriority)),
                )
            )
        elif roll < 0.5 and live:
            live.pop(rng.randrange(len(live))).cancel()

    for index in range(steps):
        when = rng.uniform(0.0, 100.0)
        label = f"e{index}"
        handle = engine.schedule(
            when,
            lambda label=label: fire(label),
            priority=rng.choice(list(EventPriority)),
        )
        if rng.random() < 0.25:
            handle.cancel()
        else:
            live.append(handle)
    engine.run()
    assert engine.pending == 0
    return log, engine.now, engine.fired


class TestEngineReplay:
    def test_same_seed_same_fire_order_and_clock(self):
        for seed in (0, 7, 12345):
            assert _drive(seed) == _drive(seed)

    def test_different_seeds_diverge(self):
        assert _drive(1)[0] != _drive(2)[0]


def _fingerprint(result):
    collector = result.collector
    return (
        result.events_fired,
        result.finished_gpu_jobs,
        result.finished_cpu_jobs,
        result.preemptions,
        result.restarts,
        result.node_downtime_s,
        collector.faults.node_failures,
        collector.faults.gpu_failures,
        collector.faults.telemetry_dropouts,
        collector.faults.stragglers,
        collector.faults.lost_gpu_iterations,
        collector.faults.lost_cpu_seconds,
        sorted(
            (job_id, record.finish_time, record.failure_count)
            for job_id, record in collector.records.items()
        ),
    )


def _faulty_scenario():
    return small_scenario(duration_days=0.02, nodes=3).with_faults(
        FaultConfig(
            seed=5,
            node_mtbf_s=1500.0,
            node_mttr_s=200.0,
            gpu_mtbf_s=4000.0,
            gpu_mttr_s=500.0,
            telemetry_mtbf_s=900.0,
            telemetry_outage_s=120.0,
            straggler_interval_s=600.0,
        )
    )


class TestSystemReplay:
    def test_fault_free_run_replays_identically(self):
        scenario = small_scenario(duration_days=0.02, nodes=3)
        first = run_scenario(scenario, CodaScheduler())
        second = run_scenario(scenario, CodaScheduler())
        assert _fingerprint(first) == _fingerprint(second)

    def test_fault_injected_run_replays_identically(self):
        scenario = _faulty_scenario()
        first = run_scenario(scenario, CodaScheduler())
        second = run_scenario(scenario, CodaScheduler())
        assert _fingerprint(first) == _fingerprint(second)
        # All four channels actually fired, so the replay test means
        # something.
        faults = first.collector.faults
        assert faults.node_failures > 0
        assert faults.telemetry_dropouts > 0

    def test_inert_fault_config_changes_nothing(self):
        scenario = small_scenario(duration_days=0.02, nodes=3)
        plain = run_scenario(scenario, CodaScheduler())
        gated = run_scenario(
            scenario.with_faults(FaultConfig()), CodaScheduler()
        )
        assert _fingerprint(plain) == _fingerprint(gated)


class TestResilienceDeterminism:
    """Quarantine schedules are as deterministic as everything else: the
    same fault seed must reproduce the exact span list, and the health
    machinery must be invisible on failure-free runs."""

    def _quarantining_run(self):
        from repro.experiments.runner import SimulationRunner
        from repro.health import HealthConfig

        scenario = _faulty_scenario()
        cluster = scenario.build_cluster()
        runner = SimulationRunner(
            cluster,
            CodaScheduler(),
            scenario.build_trace(),
            sample_interval_s=300.0,
            fault_injector=scenario.build_fault_injector(),
            health_config=HealthConfig(quarantine_threshold=1.0),
        )
        result = runner.run(until=scenario.horizon_s)
        return result, tuple(cluster.health.spans), tuple(
            runner.scheduler.dead_jobs
        )

    def test_quarantine_schedule_replays_identically(self):
        first, first_spans, first_dead = self._quarantining_run()
        second, second_spans, second_dead = self._quarantining_run()
        assert _fingerprint(first) == _fingerprint(second)
        assert first_spans == second_spans
        assert first_dead == second_dead
        # The scenario actually quarantines, so the replay test bites.
        assert len(first_spans) > 0
        assert first.quarantines == len(first_spans)
        assert first.quarantine_s > 0

    def test_health_machinery_inert_without_failures(self):
        from repro.experiments.scenarios import run_scenario as _run
        from repro.health import HealthConfig, RestartPolicy

        scenario = small_scenario(duration_days=0.02, nodes=3)
        plain = _run(scenario, CodaScheduler())
        armed = _run(
            scenario,
            CodaScheduler(
                restart_policy=RestartPolicy(max_restarts=1, base_delay_s=600.0)
            ),
            health_config=HealthConfig(quarantine_threshold=0.5),
        )
        assert _fingerprint(plain) == _fingerprint(armed)
        assert armed.quarantines == 0
        assert armed.dead_jobs == 0
