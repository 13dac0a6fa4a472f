"""The deadline-indexed tracker answers exactly like a full scan.

``_FullScanOracle`` below is the tracker as it was before the index: every
list query walks every record and advances it to ``now``.  Hypothesis
drives both through random non-decreasing histories of strikes, queries
and snapshot/restore round trips, and every answer must agree — including
queries placed exactly on a ``quarantine_until``, a ``probation_until``,
or a strike's expiry instant (strike time + window, where float rounding
makes ``now - window`` land on either side of the strike time).
"""

import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.health.config import HealthConfig
from repro.health.tracker import NodeHealthState, NodeHealthTracker

HEALTHY, SUSPECT, QUARANTINED, PROBATION = (
    "healthy",
    "suspect",
    "quarantined",
    "probation",
)


class _Record:
    def __init__(self):
        self.state = HEALTHY
        self.strikes = []
        self.backoff = 0
        self.quarantine_until = float("-inf")
        self.probation_until = float("-inf")


class _FullScanOracle:
    """Brute-force reference: no index, every query scans every record."""

    def __init__(self, config):
        self.config = config
        self.records = {}
        self.spans = []

    def _expire(self, record, now):
        while record.strikes and record.strikes[0][0] <= now - self.config.failure_window_s:
            record.strikes.pop(0)

    def _advance(self, record, now):
        if record.state == QUARANTINED and now >= record.quarantine_until:
            record.state = PROBATION
        if record.state == PROBATION and now >= record.probation_until:
            record.state = HEALTHY
            record.backoff = 0
            record.strikes.clear()
        if record.state == SUSPECT:
            self._expire(record, now)
            if not record.strikes:
                record.state = HEALTHY

    def record_failure(self, node_id, now, kind):
        config = self.config
        weight = {
            "crash": config.crash_weight,
            "gpu": config.gpu_failure_weight,
            "telemetry": config.telemetry_weight,
        }[kind]
        record = self.records.setdefault(node_id, _Record())
        self._advance(record, now)
        if record.state == QUARANTINED:
            return False
        record.strikes.append((now, weight))
        self._expire(record, now)
        score = sum(w for _, w in record.strikes)
        if record.state == PROBATION or score >= config.quarantine_threshold:
            duration = min(
                config.max_quarantine_s,
                config.base_quarantine_s * config.quarantine_backoff**record.backoff,
            )
            record.backoff += 1
            record.state = QUARANTINED
            record.quarantine_until = now + duration
            record.probation_until = record.quarantine_until + config.probation_s
            record.strikes.clear()
            self.spans.append((node_id, now, record.quarantine_until))
            return True
        record.state = SUSPECT
        return False

    def state_of(self, node_id, now):
        record = self.records.get(node_id)
        if record is None:
            return HEALTHY
        self._advance(record, now)
        return record.state

    def listing(self, now, wanted):
        found = []
        for node_id in sorted(self.records):
            if self.state_of(node_id, now) in wanted:
                found.append(node_id)
        return found


def _round_trip(tracker):
    restored = NodeHealthTracker(tracker.config)
    restored.restore(json.loads(json.dumps(tracker.snapshot())))
    assert restored.snapshot() == tracker.snapshot()
    return restored


def _next_edge(oracle, edge, now):
    """The earliest instant >= ``now`` at which some record hits ``edge``."""
    window = oracle.config.failure_window_s
    candidates = []
    for record in oracle.records.values():
        if edge == "quarantine_until":
            candidates.append(record.quarantine_until)
        elif edge == "probation_until":
            candidates.append(record.probation_until)
        else:
            candidates.extend(time + window for time, _ in record.strikes)
    return min((t for t in candidates if t >= now), default=None)


def _check_lists(tracker, oracle, now):
    assert tracker.quarantined_nodes(now) == oracle.listing(now, {QUARANTINED})
    assert tracker.deprioritized_nodes(now) == oracle.listing(
        now, {SUSPECT, PROBATION}
    )
    # The auditor's IV008 view agrees with the oracle too.
    assert {
        node_id: state.value for node_id, state in tracker.states_at(now).items()
    } == {node_id: oracle.state_of(node_id, now) for node_id in oracle.records}
    assert not tracker.overdue()


nodes = st.integers(min_value=0, max_value=3)
steps = st.one_of(
    st.just(0.0),
    st.sampled_from([0.1, 0.3, 1.0, 29.9, 30.0, 50.0, 100.0]),
    st.floats(min_value=0.0, max_value=160.0, allow_nan=False),
)
operations = st.one_of(
    st.tuples(
        st.just("fail"), nodes, st.sampled_from(["crash", "gpu", "telemetry"])
    ),
    st.tuples(st.just("state"), nodes),
    st.tuples(st.just("lists")),
    st.tuples(st.just("restore")),
    st.tuples(
        st.just("edge"),
        st.sampled_from(
            ["quarantine_until", "probation_until", "strike_expiry"]
        ),
    ),
)
configs = st.builds(
    HealthConfig,
    quarantine_threshold=st.sampled_from([1.0, 2.0, 2.5]),
    failure_window_s=st.sampled_from([0.7, 60.0, 100.1]),
    base_quarantine_s=st.sampled_from([0.1, 30.0, 50.0]),
    quarantine_backoff=st.sampled_from([1.0, 2.0]),
    max_quarantine_s=st.just(200.0),
    probation_s=st.sampled_from([0.0, 30.0]),
)


class TestIndexMatchesFullScan:
    @given(
        configs,
        st.one_of(
            st.sampled_from([0.1, 0.3, 1.1, 2.3, 5.1]),
            st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
        ),
        st.lists(st.tuples(steps, operations), max_size=60),
    )
    @settings(max_examples=300, deadline=None)
    def test_random_histories(self, config, start, history):
        tracker = NodeHealthTracker(config)
        oracle = _FullScanOracle(config)
        now = start
        for step, operation in history:
            kind = operation[0]
            if kind == "edge":
                target = _next_edge(oracle, operation[1], now)
                if target is None:
                    continue
                # On the deadline itself, then one ulp past it.
                for now in (target, math.nextafter(target, math.inf)):
                    for node_id in sorted(oracle.records):
                        assert tracker.state_of(node_id, now).value == (
                            oracle.state_of(node_id, now)
                        )
                    _check_lists(tracker, oracle, now)
                continue
            now += step
            if kind == "fail":
                _, node_id, failure = operation
                assert tracker.record_failure(
                    node_id, now, kind=failure
                ) == oracle.record_failure(node_id, now, failure)
                assert tracker.quarantine_until(node_id) == (
                    oracle.records[node_id].quarantine_until
                )
            elif kind == "state":
                assert tracker.state_of(operation[1], now).value == (
                    oracle.state_of(operation[1], now)
                )
            elif kind == "lists":
                _check_lists(tracker, oracle, now)
            else:
                tracker = _round_trip(tracker)
        _check_lists(tracker, oracle, now)
        assert [
            (span.node_id, span.start, span.end) for span in tracker.spans
        ] == oracle.spans
        assert tracker.quarantines_started == len(oracle.spans)

    def test_query_exactly_at_strike_expiry(self):
        # (0.1 + 0.7) - 0.7 < 0.1 in binary floating point: the strike at
        # t=0.1 is still live at now = 0.1 + 0.7.  The index must apply
        # _expire_strikes' own predicate, not a precomputed t + window.
        tracker = NodeHealthTracker(HealthConfig(failure_window_s=0.7))
        tracker.record_failure(0, 0.1, kind="crash")
        now = 0.1 + 0.7
        assert now - 0.7 < 0.1
        assert tracker.state_of(0, now) is NodeHealthState.SUSPECT
        assert tracker.deprioritized_nodes(now) == [0]
        assert tracker.state_of(0, 0.9) is NodeHealthState.HEALTHY
        assert tracker.deprioritized_nodes(0.9) == []

    def test_restore_rebuilds_pending_transitions(self):
        tracker = NodeHealthTracker(
            HealthConfig(base_quarantine_s=100.0, probation_s=50.0)
        )
        for i in range(3):
            tracker.record_failure(4, float(i), kind="crash")
        tracker.record_failure(1, 2.0, kind="gpu")
        restored = _round_trip(tracker)
        assert restored.quarantined_nodes(2.0) == [4]
        assert restored.deprioritized_nodes(2.0) == [1]
        # quarantine_until = 102: the node moves to probation exactly there.
        assert restored.quarantined_nodes(102.0) == []
        assert restored.deprioritized_nodes(102.0) == [1, 4]
        assert restored.deprioritized_nodes(152.0) == [1]
