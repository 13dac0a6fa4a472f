"""Property test: incremental scheduling is byte-identical to the
reference mode (``REPRO_REFERENCE=1``) under crash and GPU faults.

The harness and the compared quantities are in
:mod:`tests.schedulers.parity`; this suite's faulted leg uses
:data:`~tests.schedulers.parity.CRASH_FAULTS` (node crashes, GPU
failures, quarantines) — the events the dirty-set gates, share heaps and
snapshot caches must notice.
"""

import pytest

from tests.schedulers.parity import (
    CRASH_FAULTS,
    POLICIES,
    SEEDS,
    assert_parity,
    check_congested,
    run,
)


@pytest.mark.parametrize("faulted", (False, True), ids=("clean", "faulted"))
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("policy", POLICIES)
def test_incremental_matches_full_rescan(monkeypatch, policy, seed, faulted):
    faults = CRASH_FAULTS if faulted else None
    assert_parity(
        run(monkeypatch, policy, seed, faults, reference=False),
        run(monkeypatch, policy, seed, faults, reference=True),
    )


@pytest.mark.parametrize("faulted", (False, True), ids=("clean", "faulted"))
@pytest.mark.parametrize("policy", POLICIES)
def test_incremental_matches_full_rescan_under_congestion(
    monkeypatch, policy, faulted
):
    check_congested(monkeypatch, policy, CRASH_FAULTS if faulted else None)
