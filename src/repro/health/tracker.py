"""The per-node health state machine.

States and transitions::

    HEALTHY --strike--> SUSPECT --threshold--> QUARANTINED
       ^                   |                        |
       |   window expires  |                 window elapses
       +-------------------+                        v
       +----clean probation------------------- PROBATION
                                                    |
                                             any strike: back to
                                             QUARANTINED (longer)

Strikes come from the failure events the runner already observes (node
crashes, GPU failures, MBM telemetry dropouts), weighted per
:class:`~repro.health.config.HealthConfig` and summed over a sliding
window.  Crossing the threshold quarantines the node for a window that
doubles with every consecutive quarantine (exponential-backoff
readmission); a completed probation resets the backoff.

Determinism contract: quarantine entry is *eager* (decided inside
:meth:`record_failure`, which only the runner's failure paths call), while
QUARANTINED -> PROBATION -> HEALTHY and SUSPECT -> HEALTHY transitions are
*lazy* and anchored to deadlines fixed when the strike or quarantine was
recorded.  A query at ``now`` first applies every transition due by
``now`` and then reads the result, so applying them earlier (an observer's
query) or later never changes what any query returns.  The invariant
auditor may therefore query freely without perturbing the run.

The deadline index makes a query cost O(transitions due since the last
query) instead of O(records): the QUARANTINED and flagged (SUSPECT or
PROBATION) node sets are kept current, a heap holds each benched node's
``quarantine_until`` / ``probation_until`` and another holds the raw time
of every SUSPECT strike.  Draining pops entries due by ``now`` with the
very predicates :meth:`NodeHealthTracker._advance` uses, runs ``_advance``
on the popped node and re-indexes it.  A checkpoint restore
rebuilds the index from the records, and the auditor's IV008 check
compares it against a from-scratch recomputation
(:meth:`NodeHealthTracker.states_at`).
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.health.config import HealthConfig
from repro.sim.state import FLOAT, INT, NODE_ID, NODE_KEY, Choice, DictOf, ListOf
from repro.sim.state import Record, Refs, Row, Stateful, Struct


class NodeHealthState(Enum):
    """Where a node stands in the quarantine life cycle."""

    HEALTHY = "healthy"
    SUSPECT = "suspect"
    QUARANTINED = "quarantined"
    PROBATION = "probation"


@dataclass(frozen=True)
class QuarantineSpan:
    """One quarantine window of one node (end fixed at entry time)."""

    node_id: int
    start: float
    end: float

    @property
    def duration_s(self) -> float:
        return self.end - self.start


@dataclass
class _NodeRecord:
    state: NodeHealthState = NodeHealthState.HEALTHY
    #: Recent (time, weight) strikes inside the failure window.
    strikes: Deque[Tuple[float, float]] = field(default_factory=deque)
    #: Consecutive quarantines without a clean probation in between.
    backoff_level: int = 0
    quarantine_until: float = float("-inf")
    probation_until: float = float("-inf")


def _deadline_of(record: _NodeRecord) -> Optional[float]:
    """The instant the record's next deadline transition falls due."""
    if record.state is NodeHealthState.QUARANTINED:
        return record.quarantine_until
    if record.state is NodeHealthState.PROBATION:
        return record.probation_until
    return None


_RECORD = Record(
    _NodeRecord,
    state=Choice(NodeHealthState),
    strikes=ListOf(Row(FLOAT, FLOAT), deque),
    backoff_level=INT,
    quarantine_until=FLOAT,
    probation_until=FLOAT,
)
_SPAN = Record(QuarantineSpan, node_id=NODE_ID, start=FLOAT, end=FLOAT)


class NodeHealthTracker(Stateful):
    """Tracks every node's health state from observed failure events."""

    def __init__(self, config: Optional[HealthConfig] = None) -> None:
        self.config = config or HealthConfig()
        self._records: Dict[int, _NodeRecord] = {}
        #: All quarantine windows ever entered (for metrics).
        self.spans: List[QuarantineSpan] = []
        self.quarantines_started: int = 0
        #: Bumped on every strike intake and carried in snapshots.
        #: Lazy deadline transitions do NOT bump it.
        self.version: int = 0
        self._reindex()

    # ------------------------------------------------------------------ #
    # Strike intake (runner failure paths only)

    def record_failure(self, node_id: int, now: float, *, kind: str) -> bool:
        """Register one failure on ``node_id``; True when this strike
        pushes the node into QUARANTINED (the caller must then evict any
        residents and arm a readmission wake-up at
        :meth:`quarantine_until`)."""
        if not self.config.enabled:
            return False
        weight = self.config.weight_of(kind)
        self.version += 1
        record = self._records.setdefault(node_id, _NodeRecord())
        deadline = _deadline_of(record)
        entered = self._strike(record, node_id, now, weight)
        self._index(node_id, record, deadline)
        return entered

    def _strike(
        self, record: _NodeRecord, node_id: int, now: float, weight: float
    ) -> bool:
        self._advance(record, now)
        if record.state is NodeHealthState.QUARANTINED:
            # Already benched; a strike against an empty node (e.g. a GPU
            # burning out while idle) must not extend the sentence, or a
            # flaky-but-idle node could never serve again.
            return False
        record.strikes.append((now, weight))
        self._expire_strikes(record, now)
        if record.state is NodeHealthState.PROBATION:
            # Zero tolerance during probation: the node just proved the
            # quarantine window was too short.
            self._enter_quarantine(record, node_id, now)
            return True
        if self._strike_score(record) >= self.config.quarantine_threshold:
            self._enter_quarantine(record, node_id, now)
            return True
        record.state = NodeHealthState.SUSPECT
        heapq.heappush(self._strike_times, (now, node_id))
        return False

    # ------------------------------------------------------------------ #
    # Queries (drain due transitions, then read the index)

    def state_of(self, node_id: int, now: float) -> NodeHealthState:
        self._drain(now)
        record = self._records.get(node_id)
        return NodeHealthState.HEALTHY if record is None else record.state

    def quarantine_until(self, node_id: int) -> float:
        """Deadline of the node's current/most recent quarantine window."""
        record = self._records.get(node_id)
        return float("-inf") if record is None else record.quarantine_until

    def quarantined_nodes(self, now: float) -> List[int]:
        self._drain(now)
        if self._quarantined_sorted is None:
            self._quarantined_sorted = sorted(self._quarantined)
        return list(self._quarantined_sorted)

    def deprioritized_nodes(self, now: float) -> List[int]:
        """Nodes placement should prefer to avoid: SUSPECT or PROBATION."""
        self._drain(now)
        if self._flagged_sorted is None:
            self._flagged_sorted = sorted(self._flagged)
        return list(self._flagged_sorted)

    def total_quarantine_s(self, now: float) -> float:
        """Quarantine time accumulated through ``now`` across all nodes."""
        # fsum, not sum: exactly rounded on every Python (see
        # Cluster.mean_gpu_utilization).
        return math.fsum(
            max(0.0, min(span.end, now) - span.start) for span in self.spans
        )

    # ------------------------------------------------------------------ #
    # Audit support (pure: nothing here mutates the tracker)

    def states_at(self, now: float) -> Dict[int, NodeHealthState]:
        """Every record's state at ``now``, recomputed from the records
        alone without consulting or touching the index."""
        window = self.config.failure_window_s
        states: Dict[int, NodeHealthState] = {}
        for node_id, record in self._records.items():
            state = record.state
            if (
                state is NodeHealthState.QUARANTINED
                and now >= record.quarantine_until
            ):
                state = NodeHealthState.PROBATION
            if (
                state is NodeHealthState.PROBATION
                and now >= record.probation_until
            ):
                state = NodeHealthState.HEALTHY
            if state is NodeHealthState.SUSPECT and all(
                time <= now - window for time, _ in record.strikes
            ):
                state = NodeHealthState.HEALTHY
            states[node_id] = state
        return states

    def overdue(self) -> bool:
        """True when an index entry was due at the last drained ``now``
        but is still armed (a drain that stopped early)."""
        now = self.drained_now
        if self._deadlines and self._deadlines[0][0] <= now:
            return True
        horizon = now - self.config.failure_window_s
        return bool(self._strike_times) and self._strike_times[0][0] <= horizon

    # ------------------------------------------------------------------ #
    # Checkpoint / restore (the index is rebuilt from the records)

    STATE = Struct(
        ("records", "_records", DictOf(NODE_KEY, _RECORD)),
        ("spans", ListOf(_SPAN)),
        ("quarantines_started", INT),
        ("version", INT),
    )

    def _after_load(self, refs: Refs) -> None:
        self._reindex()

    # ------------------------------------------------------------------ #
    # The deadline index

    def _reindex(self) -> None:
        """Rebuild the whole index from the records."""
        self._quarantined: Set[int] = set()
        self._flagged: Set[int] = set()
        #: Sorted views of the two sets, dropped only when membership
        #: changes.
        self._quarantined_sorted: Optional[List[int]] = None
        self._flagged_sorted: Optional[List[int]] = None
        #: Heap of (quarantine_until | probation_until, node_id).  An
        #: entry whose key no longer matches the record's deadline is
        #: stale and skipped on pop.
        self._deadlines: List[Tuple[float, int]] = []
        #: Heap of (raw strike time, node_id), one entry per SUSPECT
        #: strike.
        self._strike_times: List[Tuple[float, int]] = []
        #: Latest ``now`` every due entry has been drained through.
        self.drained_now = float("-inf")
        for node_id, record in self._records.items():
            self._index(node_id, record, None)
            self._strike_times.extend((time, node_id) for time, _ in record.strikes)
        heapq.heapify(self._strike_times)

    def _drain(self, now: float) -> None:
        """Advance every node with an entry due by ``now``."""
        deadlines = self._deadlines
        records = self._records
        while deadlines and deadlines[0][0] <= now:
            due, node_id = heapq.heappop(deadlines)
            record = records[node_id]
            if _deadline_of(record) == due:
                self._advance(record, now)
                self._index(node_id, record, due)
        strike_times = self._strike_times
        # The exact expression _expire_strikes compares against, so an
        # entry pops at the instant its strike expires.
        horizon = now - self.config.failure_window_s
        while strike_times and strike_times[0][0] <= horizon:
            node_id = heapq.heappop(strike_times)[1]
            record = records[node_id]
            deadline = _deadline_of(record)
            self._advance(record, now)
            self._index(node_id, record, deadline)
        if now > self.drained_now:
            self.drained_now = now

    def _index(
        self, node_id: int, record: _NodeRecord, deadline: Optional[float]
    ) -> None:
        """Re-file ``node_id`` after its record moved; ``deadline`` is
        the one it was armed at before the move."""
        state = record.state
        if (state is NodeHealthState.QUARANTINED) != (
            node_id in self._quarantined
        ):
            self._quarantined ^= {node_id}
            self._quarantined_sorted = None
        flagged = (
            state is NodeHealthState.SUSPECT
            or state is NodeHealthState.PROBATION
        )
        if flagged != (node_id in self._flagged):
            self._flagged ^= {node_id}
            self._flagged_sorted = None
        armed = _deadline_of(record)
        if armed is not None and armed != deadline:
            heapq.heappush(self._deadlines, (armed, node_id))

    # ------------------------------------------------------------------ #
    # Transitions

    def _advance(self, record: _NodeRecord, now: float) -> None:
        """Apply every deadline-anchored transition due by ``now``."""
        if (
            record.state is NodeHealthState.QUARANTINED
            and now >= record.quarantine_until
        ):
            record.state = NodeHealthState.PROBATION
        if (
            record.state is NodeHealthState.PROBATION
            and now >= record.probation_until
        ):
            # Clean probation: full rehabilitation, backoff forgotten.
            record.state = NodeHealthState.HEALTHY
            record.backoff_level = 0
            record.strikes.clear()
        if record.state is NodeHealthState.SUSPECT:
            self._expire_strikes(record, now)
            if not record.strikes:
                record.state = NodeHealthState.HEALTHY

    def _expire_strikes(self, record: _NodeRecord, now: float) -> None:
        horizon = now - self.config.failure_window_s
        while record.strikes and record.strikes[0][0] <= horizon:
            record.strikes.popleft()

    @staticmethod
    def _strike_score(record: _NodeRecord) -> float:
        return sum(weight for _, weight in record.strikes)

    def _enter_quarantine(
        self, record: _NodeRecord, node_id: int, now: float
    ) -> None:
        config = self.config
        duration = min(
            config.max_quarantine_s,
            config.base_quarantine_s
            * config.quarantine_backoff**record.backoff_level,
        )
        record.backoff_level += 1
        record.state = NodeHealthState.QUARANTINED
        record.quarantine_until = now + duration
        record.probation_until = record.quarantine_until + config.probation_s
        record.strikes.clear()
        self.spans.append(
            QuarantineSpan(node_id=node_id, start=now, end=record.quarantine_until)
        )
        self.quarantines_started += 1
