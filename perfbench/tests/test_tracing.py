"""The benchmark's own tests: span arithmetic, coverage of every wrapped
entry point, and that wrapping leaves results unchanged.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import pytest

import tracing
import workloads
from repro.config import ClusterConfig, NodeConfig
from repro.experiments.scenarios import Scenario, run_scenario
from repro.faults import FaultConfig
from repro.health import HealthConfig
from repro.parallel import SimPool
from repro.parallel.spec import RunSpec, build_scheduler
from repro.sim.engine import Engine
from repro.sweep import SupervisorConfig
from repro.workload.tracegen import TraceConfig


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock(monkeypatch: pytest.MonkeyPatch) -> FakeClock:
    fake = FakeClock()
    monkeypatch.setattr(tracing, "_clock", fake)
    return fake


def test_self_time_is_duration_minus_child_spans(clock: FakeClock) -> None:
    tracer = tracing.Tracer()
    leaf = tracer.wrap("leaf", lambda: clock.advance(1.0), "leaf")

    def middle_body() -> None:
        clock.advance(2.0)
        leaf()
        clock.advance(0.5)

    middle = tracer.wrap("middle", middle_body, "middle")

    def outer_body() -> None:
        clock.advance(3.0)
        middle()
        middle()
        leaf()

    tracer.wrap("outer", outer_body, "outer")()
    # outer lasts 3 + 2 * (2 + 1 + 0.5) + 1 = 11 seconds.
    assert dict(tracer.self_s) == {"outer": 3.0, "middle": 5.0, "leaf": 3.0}
    assert dict(tracer.calls) == {"outer": 1, "middle": 2, "leaf": 3}
    assert tracer.total_self_s() == 11.0


def test_spans_of_one_layer_at_two_depths_do_not_double_count(
    clock: FakeClock,
) -> None:
    tracer = tracing.Tracer()
    inner = tracer.wrap("layer", lambda: clock.advance(1.0), "inner")

    def outer_body() -> None:
        clock.advance(1.0)
        inner()

    tracer.wrap("layer", outer_body, "outer")()
    assert tracer.self_s["layer"] == 2.0


def test_a_raising_span_is_still_booked(clock: FakeClock) -> None:
    tracer = tracing.Tracer()

    def fails() -> None:
        clock.advance(1.5)
        raise KeyError("gone")

    wrapped = tracer.wrap("layer", fails, "site")
    outer = tracer.wrap("outer", lambda: _swallow(wrapped), "outer")
    outer()
    assert tracer.self_s["layer"] == 1.5
    assert tracer.self_s["outer"] == 0.0
    assert tracer.calls["site"] == 1


def _swallow(fn) -> None:
    with pytest.raises(KeyError):
        fn()


def test_event_span_follows_recategorization(clock: FakeClock) -> None:
    tracer = tracing.Tracer()
    gate = tracer.wrap("schedulers.pass", lambda: clock.advance(2.0), "gate")

    def action() -> None:
        clock.advance(1.0)
        gate()
        tracer.recategorize("schedule-skip")

    tracer.event_action(action, "schedule-pass")()
    assert tracer.self_s["experiments.schedule-skip"] == 1.0
    assert tracer.self_s["schedulers.pass"] == 2.0
    assert tracer.self_s.get("experiments.schedule-pass", 0.0) == 0.0
    assert tracer.calls["experiments.schedule-skip"] == 1


def test_probe_steps_are_booked_as_allocator_work() -> None:
    tracer = tracing.Tracer()
    tracer.event_action(lambda: None, "profile:job-7")()
    tracer.event_action(lambda: None, "straggler-end:job-3:1:1")()
    assert tracer.calls["experiments.allocator-probe"] == 1
    assert tracer.calls["experiments.fault"] == 1


def test_percentile_is_nearest_rank() -> None:
    samples = [float(i) for i in range(1, 101)]
    assert tracing.percentile(samples, 50) == 50.0
    assert tracing.percentile(samples, 99) == 99.0
    assert tracing.percentile([], 99) == 0.0


# ---------------------------------------------------------------------- #
# Real simulations


def _tiny_scenario() -> Scenario:
    """Six nodes, half without MBA, bandwidth hogs and all four fault
    channels: small enough for a test, busy enough to reach every entry
    point the simulator calls."""
    return Scenario(
        cluster_config=ClusterConfig(
            node_groups=(
                (3, NodeConfig(gpus=4)),
                (3, NodeConfig(gpus=4, mba_supported=False)),
            )
        ),
        trace_config=TraceConfig(
            duration_days=0.3,
            gpu_jobs_per_day=120.0,
            cpu_jobs_per_day=400.0,
            heat_fraction=0.3,
            seed=3,
        ),
        drain_s=3600.0,
    ).with_faults(
        FaultConfig(
            seed=2,
            node_mtbf_s=4 * 3600.0,
            gpu_mtbf_s=12 * 3600.0,
            telemetry_mtbf_s=4 * 3600.0,
            straggler_interval_s=1800.0,
        )
    )


def _case(policy: str) -> workloads.Case:
    return workloads.Case(
        _tiny_scenario(),
        lambda: build_scheduler(policy),
        HealthConfig(quarantine_threshold=1.0),
    )


#: Entry points no simulator code calls: the runner's ``preempt_job`` is
#: part of the scheduler-context surface, but every in-tree preemption
#: arrives as a PreemptDecision instead.
NO_IN_TREE_CALLER = {"SimulationRunner.preempt_job"}


def _expected_sites() -> set:
    sites = {
        f"{module}.{name}"
        for name, (_, modules) in tracing.FUNCTION_SITES.items()
        for module in modules
    }
    sites |= {
        f"{cls}.{name}"
        for _, cls, names, _ in tracing.METHOD_SITES
        for name in names
    }
    sites |= {f"SimulationRunner.{name}" for name in tracing.RUNNER_COUNTED}
    sites |= {"FreeState.of", "Engine.schedule"}
    return sites - NO_IN_TREE_CALLER


def test_every_wrapped_entry_point_records_calls() -> None:
    tracer = tracing.Tracer()
    for policy in ("fifo", "drf", "coda"):
        case = _case(policy)
        with tracing.installed(tracer):
            workloads.with_digest(workloads.simulate(case, tracer))
    spec = RunSpec(scenario=_tiny_scenario(), scheduler="fifo")
    with tracing.installed(tracer):
        SimPool(jobs=1).map([spec])
        SimPool(jobs=2, supervisor=SupervisorConfig()).map(
            [spec, spec.with_seed(4)]
        )
    silent = sorted(site for site in _expected_sites() if tracer.calls[site] == 0)
    assert silent == []
    assert tracer.values["sweep_attempts"] == 2
    for category in tracing.CATEGORIES:
        assert tracer.calls["experiments." + category] > 0, category
    assert tracer.calls[tracing.OTHER_EVENTS] == 0


def test_installation_is_undone() -> None:
    originals = (Engine.__dict__["schedule"], Engine.__dict__["run"])
    with tracing.installed(tracing.Tracer()):
        assert Engine.__dict__["schedule"] is not originals[0]
    assert (Engine.__dict__["schedule"], Engine.__dict__["run"]) == originals


@pytest.mark.parametrize("policy", ["fifo", "drf", "coda"])
def test_wrapping_leaves_the_digest_unchanged(policy: str) -> None:
    plain = workloads.with_digest(workloads.simulate(_case(policy)))
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced = workloads.simulate(_case(policy), tracer)
    assert workloads.with_digest(traced).digest == plain.digest
    library = run_scenario(
        _tiny_scenario(),
        build_scheduler(policy),
        health_config=HealthConfig(quarantine_threshold=1.0),
    )
    assert workloads.result_digest(library) == plain.digest


def test_self_times_account_for_the_traced_wall() -> None:
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        sim = workloads.simulate(_case("coda"), tracer)
    wall = sim.setup_s + sim.run_s
    assert 0.0 <= wall - tracer.total_self_s() < 0.03 * wall
