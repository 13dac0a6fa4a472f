"""SimPool execution paths and executor injection into the drivers."""

import json
import os

import pytest

from repro.checkpoint import checkpointed_runner
from repro.experiments.scenarios import (
    run_comparison,
    run_mtbf_sweep,
    small_scenario,
)
from repro.metrics.serialize import run_result_from_dict, run_result_to_dict
from repro.parallel import ResultCache, RunSpec, SimPool, serial_map
from repro.sweep import SupervisorConfig, run_supervised


def _dumps(result):
    return json.dumps(run_result_to_dict(result), sort_keys=True)


@pytest.fixture
def scenario():
    return small_scenario(duration_days=0.02, nodes=4, seed=1)


#: Fires a checkpoint several times in each run of the fixture scenario
#: (fifo fires 40 events, coda 345).
_EVERY = 15


def _supervised(specs, config):
    outcomes = run_supervised(specs, jobs=1, config=config)
    return [run_result_from_dict(outcome.payload) for outcome in outcomes]


def _run(runner, spec):
    return runner.run(until=spec.resolved_scenario().horizon_s)


def _checkpointed(specs, tmp_path):
    return [
        _run(
            checkpointed_runner(
                spec,
                checkpoint_dir=str(tmp_path / spec.scheduler),
                checkpoint_every_events=_EVERY,
            ),
            spec,
        )
        for spec in specs
    ]


def _resumed(specs, tmp_path):
    """Each spec resumed from the middle of its checkpointed run."""
    _checkpointed(specs, tmp_path)
    results = []
    for spec in specs:
        directory = tmp_path / spec.scheduler
        names = sorted(os.listdir(directory))
        middle = str(directory / names[len(names) // 2])
        results.append(_run(checkpointed_runner(spec, restore_from=middle), spec))
    return results


#: Every way the repo turns specs into results, against ``serial_map``
#: (the reference).
_PATHS = {
    "pool-jobs1": lambda specs, tmp_path: SimPool(jobs=1).map(specs),
    "pool-jobs2": lambda specs, tmp_path: SimPool(jobs=2).map(specs),
    "supervised-jobs1": lambda specs, tmp_path: _supervised(
        specs, SupervisorConfig()
    ),
    "supervised-checkpointed": lambda specs, tmp_path: _supervised(
        specs,
        SupervisorConfig(
            checkpoint_dir=str(tmp_path), checkpoint_every_events=_EVERY
        ),
    ),
    "checkpoints-fresh": _checkpointed,
    "checkpoints-resumed": _resumed,
}


@pytest.mark.parametrize("path", sorted(_PATHS))
def test_every_path_matches_serial_map(path, scenario, tmp_path):
    specs = [
        RunSpec(scenario=scenario, scheduler=name) for name in ("fifo", "coda")
    ]
    expected = [_dumps(result) for result in serial_map(specs)]
    assert [_dumps(r) for r in _PATHS[path](specs, tmp_path)] == expected


class TestSimPool:
    def test_rejects_non_positive_jobs(self):
        with pytest.raises(ValueError, match="jobs"):
            SimPool(jobs=0)

    def test_results_align_with_spec_order(self, scenario):
        specs = [
            RunSpec(scenario=scenario, scheduler=name)
            for name in ("coda", "fifo", "drf")
        ]
        results = SimPool(jobs=1).map(specs)
        assert [r.scheduler_name for r in results] == ["coda", "fifo", "drf"]

    def test_spawn_parallel_is_byte_identical_to_serial(self, scenario):
        specs = [
            RunSpec(scenario=scenario, scheduler=name)
            for name in ("fifo", "drf", "coda")
        ]
        serial = serial_map(specs)
        parallel = SimPool(jobs=2).map(specs)
        assert [r.scheduler_name for r in parallel] == ["fifo", "drf", "coda"]
        for left, right in zip(serial, parallel):
            assert _dumps(left) == _dumps(right)

    def test_unsupervised_pool_quarantines_a_spec_that_always_raises(
        self, scenario, monkeypatch
    ):
        # jobs > 1 always runs under the supervisor's default config, so
        # a poison spec is retried, quarantined, and named.
        monkeypatch.setenv("REPRO_TEST_RAISE_SPEC", "drf:s1")
        specs = [
            RunSpec(scenario=scenario, scheduler=name)
            for name in ("fifo", "drf")
        ]
        with pytest.raises(RuntimeError, match="'drf:s1' quarantined"):
            SimPool(jobs=2).map(specs)

    def test_one_spec_left_after_the_cache_is_still_supervised(
        self, tmp_path, scenario, monkeypatch
    ):
        # Whether a run is retried must not depend on how many other
        # specs of its batch missed the cache.
        cache = ResultCache(tmp_path / "cache")
        fifo = RunSpec(scenario=scenario, scheduler="fifo")
        drf = RunSpec(scenario=scenario, scheduler="drf")
        SimPool(cache=cache).map([fifo])
        monkeypatch.setenv("REPRO_TEST_RAISE_SPEC", "drf:s1")
        pool = SimPool(
            jobs=2,
            cache=cache,
            supervisor=SupervisorConfig(max_retries=1, backoff_base_s=0.0),
        )
        with pytest.raises(
            RuntimeError, match=r"'drf:s1' quarantined after 2 attempt"
        ):
            pool.map([fifo, drf])

    def test_a_lone_spec_runs_on_a_worker_and_times_out(self):
        # A one-spec batch gets the process boundary too: its overrun is
        # killed and quarantined instead of running in-process to the end.
        spec = RunSpec(
            scenario=small_scenario(duration_days=0.5, nodes=8, seed=1),
            scheduler="coda",
        )
        pool = SimPool(
            jobs=2,
            supervisor=SupervisorConfig(run_timeout_s=0.05, max_retries=0),
        )
        with pytest.raises(
            RuntimeError, match=r"quarantined .* run exceeded timeout"
        ):
            pool.map([spec])

    def test_mixed_hit_miss_batch_keeps_order(self, tmp_path, scenario):
        cache = ResultCache(tmp_path / "cache")
        first = RunSpec(scenario=scenario, scheduler="fifo")
        second = RunSpec(scenario=scenario, scheduler="drf")
        SimPool(cache=cache).map([first])  # prime only the first
        results = SimPool(cache=cache).map([first, second])
        assert [r.scheduler_name for r in results] == ["fifo", "drf"]
        assert cache.stats.hits == 1
        assert cache.stats.stores == 2


class TestExecutorInjection:
    def test_run_comparison_serial_equals_pooled(self, scenario):
        serial = run_comparison(scenario)
        pooled = run_comparison(scenario, executor=SimPool(jobs=1).map)
        assert set(serial) == set(pooled) == {"fifo", "drf", "coda"}
        for name in serial:
            assert _dumps(serial[name]) == _dumps(pooled[name])

    def test_run_comparison_executor_sees_all_specs(self, scenario):
        seen = []

        def spy(specs):
            seen.extend(specs)
            return serial_map(specs)

        run_comparison(scenario, executor=spy)
        assert [spec.scheduler for spec in seen] == ["fifo", "drf", "coda"]

    def test_run_mtbf_sweep_through_executor(self, scenario):
        hours = (0.0, 1.0)
        serial = run_mtbf_sweep(scenario, hours, scheduler="fifo")
        pooled = run_mtbf_sweep(
            scenario, hours, scheduler="fifo", executor=SimPool(jobs=1).map
        )
        assert set(serial) == set(pooled) == set(hours)
        for point in hours:
            assert _dumps(serial[point]) == _dumps(pooled[point])


class TestClampJobs:
    """clamp_jobs is the one home of the single-CPU degradation rule;
    default_jobs, run_sweep, and compare --jobs all route through it."""

    def test_single_cpu_clamps_explicit_request(self, monkeypatch):
        import repro.parallel.pool as pool_module

        monkeypatch.setattr(pool_module.os, "cpu_count", lambda: 1)
        monkeypatch.delenv("REPRO_SWEEP_FORCE_SPAWN", raising=False)
        from repro.parallel import clamp_jobs

        assert clamp_jobs(4) == 1
        assert clamp_jobs(1) == 1

    def test_force_spawn_overrides_single_cpu(self, monkeypatch):
        import repro.parallel.pool as pool_module

        monkeypatch.setattr(pool_module.os, "cpu_count", lambda: 1)
        monkeypatch.setenv("REPRO_SWEEP_FORCE_SPAWN", "1")
        from repro.parallel import clamp_jobs

        assert clamp_jobs(4) == 4

    def test_multicore_passthrough(self, monkeypatch):
        import repro.parallel.pool as pool_module

        monkeypatch.setattr(pool_module.os, "cpu_count", lambda: 8)
        monkeypatch.delenv("REPRO_SWEEP_FORCE_SPAWN", raising=False)
        from repro.parallel import clamp_jobs

        assert clamp_jobs(4) == 4


class TestDefaultJobs:
    def test_single_cpu_clamps_env_request(self, monkeypatch):
        import repro.parallel.pool as pool_module

        monkeypatch.setattr(pool_module.os, "cpu_count", lambda: 1)
        monkeypatch.setenv("REPRO_JOBS", "8")
        monkeypatch.delenv("REPRO_SWEEP_FORCE_SPAWN", raising=False)
        from repro.parallel import default_jobs

        assert default_jobs() == 1

    def test_single_cpu_force_spawn_honors_env_request(self, monkeypatch):
        import repro.parallel.pool as pool_module

        monkeypatch.setattr(pool_module.os, "cpu_count", lambda: 1)
        monkeypatch.setenv("REPRO_JOBS", "8")
        monkeypatch.setenv("REPRO_SWEEP_FORCE_SPAWN", "1")
        from repro.parallel import default_jobs

        assert default_jobs() == 8

    def test_multicore_honors_env_request(self, monkeypatch):
        import repro.parallel.pool as pool_module

        monkeypatch.setattr(pool_module.os, "cpu_count", lambda: 4)
        monkeypatch.setenv("REPRO_JOBS", "3")
        from repro.parallel import default_jobs

        assert default_jobs() == 3
