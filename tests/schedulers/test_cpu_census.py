"""Incremental CPU-array census: the maintained maps vs a fresh walk.

The census feeding ``_place_cpu_normal`` is maintained incrementally
(``job_started`` / ``_forget`` / ``job_failed`` / ``cpu_job_resized``,
and rebuilt from the tracked jobs on restore)
instead of being rebuilt from the cluster on every pass.  The placement
decision stream is keyed on these integers, so the maps must equal a
fresh cluster walk at every single census — including through failures,
restarts, and eliminator halvings.
"""

from repro.core.coda import CodaScheduler
from repro.core.multiarray import MultiArrayScheduler
from repro.experiments.scenarios import run_scenario, small_scenario
from repro.faults import FaultConfig
from repro.health import HealthConfig, RestartPolicy


def test_census_matches_walk_throughout_faulted_run(monkeypatch):
    """Every census served during a faulted end-to-end run must be
    entry-for-entry identical to an uncached cluster walk."""
    checks = {"count": 0}
    orig = MultiArrayScheduler._cpu_census

    def checked(self, cluster, preempted):
        result = orig(self, cluster, preempted)
        walk = self._cpu_census_build(cluster, preempted)
        assert result == walk
        checks["count"] += 1
        return result

    monkeypatch.setattr(MultiArrayScheduler, "_cpu_census", checked)
    scenario = small_scenario(duration_days=0.2, seed=5).with_faults(
        FaultConfig(seed=7, node_mtbf_s=2 * 3600.0)
    )
    run_scenario(
        scenario,
        CodaScheduler(restart_policy=RestartPolicy(max_restarts=3)),
        health_config=HealthConfig(quarantine_threshold=1.0),
    )
    assert checks["count"] > 0


def test_cpu_job_resized_folds_the_delta():
    sched = CodaScheduler()
    sched._tracked["j"] = [3, 8]
    sched._cpu_used[3] = 8
    sched.cpu_job_resized("j", 4, 0.0)
    assert sched._cpu_used == {3: 4}
    assert sched._tracked["j"] == [3, 4]


def test_cpu_job_resized_ignores_untracked_jobs():
    sched = CodaScheduler()
    sched.cpu_job_resized("ghost", 2, 0.0)
    assert sched._cpu_used == {}
    assert sched._tracked == {}
