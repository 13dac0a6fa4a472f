"""Property test: lazy repricing and completion timers are byte-identical
to the reference mode (``REPRO_REFERENCE=1``) under the full fault set.

The harness and the compared quantities are in
:mod:`tests.schedulers.parity`; this suite's faulted leg uses
:data:`~tests.schedulers.parity.FAULTS`, which adds telemetry dropouts
and CPU stragglers to crashes and GPU failures, so completions move
later mid-flight and lazy runs fire stale timers.
"""

import pytest

from repro.experiments.runner import SimulationRunner
from tests.schedulers.parity import (
    FAULTS,
    POLICIES,
    SEEDS,
    assert_parity,
    check_congested,
    run,
)


@pytest.mark.parametrize("faulted", (False, True), ids=("clean", "faulted"))
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("policy", POLICIES)
def test_lazy_matches_eager(monkeypatch, policy, seed, faulted):
    faults = FAULTS if faulted else None
    assert_parity(
        run(monkeypatch, policy, seed, faults, reference=False),
        run(monkeypatch, policy, seed, faults, reference=True),
    )


@pytest.mark.parametrize("faulted", (False, True), ids=("clean", "faulted"))
@pytest.mark.parametrize("policy", POLICIES)
def test_lazy_matches_eager_under_congestion(monkeypatch, policy, faulted):
    check_congested(monkeypatch, policy, FAULTS if faulted else None)


@pytest.mark.parametrize("policy", POLICIES)
def test_faulted_runs_actually_fire_stale_timers(monkeypatch, policy):
    """The parity above is vacuous for the stale-timer path unless lazy
    runs really leave later-moving completions behind; stragglers slow
    CPU jobs mid-flight, which is exactly that."""
    stale = run(monkeypatch, policy, 0, FAULTS, reference=False)[3]
    assert stale > 0, "faulted scenario never fired a stale timer"


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("policy", POLICIES)
def test_lazy_matches_eager_past_the_knee(monkeypatch, policy, seed):
    """CPU jobs push nodes past the 75 % knee and back: parity must hold
    while the monitor drops low-pressure nodes and the pressure watch
    wakes them, and while GPU reprices key on grant ratios and
    post-knee excess that actually move."""
    opt_run = run(monkeypatch, policy, seed, None, reference=False, leg="knee")
    assert_parity(
        opt_run,
        run(monkeypatch, policy, seed, None, reference=True, leg="knee"),
    )
    if policy == "coda":
        assert opt_run[1]["throttle_events"] > 0, "no node crossed the knee"


def test_knee_leg_drops_and_wakes_monitor_nodes(monkeypatch):
    """The knee leg is not vacuous for the monitor: CODA's eliminator
    drops CPU-hosting nodes below the threshold, and the pressure watch
    brings CPU-hosting nodes back at or above it."""
    dropped, woken = [], []
    deactivate = SimulationRunner.monitor_deactivate_node
    activate = SimulationRunner._monitor_activate

    def recording_deactivate(self, node_id):
        bandwidth = self.cluster.node(node_id).bandwidth
        if bandwidth.has_cpu_jobs():
            dropped.append(node_id)
        deactivate(self, node_id)

    def recording_activate(self, node_id):
        bandwidth = self.cluster.node(node_id).bandwidth
        threshold = self._monitor_threshold
        if (
            node_id not in self._monitor_active
            and threshold is not None
            and bandwidth.has_cpu_jobs()
            and bandwidth.pressure >= threshold
        ):
            woken.append(node_id)
        activate(self, node_id)

    monkeypatch.setattr(
        SimulationRunner, "monitor_deactivate_node", recording_deactivate
    )
    monkeypatch.setattr(SimulationRunner, "_monitor_activate", recording_activate)
    run(monkeypatch, "coda", 0, None, reference=False, leg="knee")
    assert dropped and woken
