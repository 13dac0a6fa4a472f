"""Property test: lazy repricing and completion timers are byte-identical
to the reference mode (``REPRO_REFERENCE=1``) under the full fault set.

The harness and the compared quantities are in
:mod:`tests.schedulers.parity`; this suite's faulted leg uses
:data:`~tests.schedulers.parity.FAULTS`, which adds telemetry dropouts
and CPU stragglers to crashes and GPU failures, so completions move
later mid-flight and lazy runs fire stale timers.
"""

import pytest

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
