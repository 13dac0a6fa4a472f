"""Memory-bandwidth allocation (the simulated Intel MBA).

MBA on real hardware throttles a core group's memory traffic in coarse
steps (100 %, 90 %, ..., 10 % of unthrottled throughput).  The controller
here mirrors that interface: per job it keeps a throttle *level*, converts
it to a bandwidth cap against the job's unthrottled demand, and pushes the
cap into the node's :class:`~repro.cluster.mbm.BandwidthMonitor`.

Nodes can be built without MBA support (``supported=False``), in which case
the contention eliminator must fall back to halving the CPU job's cores
(Sec. V-D) — the controller refuses to throttle so callers cannot silently
depend on hardware that is not there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.cluster.mbm import BandwidthMonitor
from repro.sim.state import FLOAT, JOB_ID, DictOf, Stateful, Struct

#: The discrete MBA throttle levels, as fractions of unthrottled bandwidth.
MBA_LEVELS = (1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1)


@dataclass
class MbaController(Stateful):
    """Per-node throttle state.

    Attributes:
        monitor: the node's bandwidth monitor, which enforces the caps.
        supported: whether this node's CPU has MBA ("only works on the
            latest CPU", Sec. V-D).
    """

    monitor: BandwidthMonitor
    supported: bool = True
    _levels: Dict[str, float] = field(default_factory=dict)

    #: Throttle levels only: the caps they imply live in the monitor.
    STATE = Struct((None, "_levels", DictOf(JOB_ID, FLOAT)))

    def throttle_level(self, job_id: str) -> float:
        """Current throttle fraction for ``job_id`` (1.0 = unthrottled)."""
        return self._levels.get(job_id, 1.0)

    def throttle_down(self, job_id: str) -> float:
        """Step the job to the next-lower MBA level and apply the cap.

        Returns:
            The new throttle fraction.

        Raises:
            RuntimeError: if this node has no MBA support.
        """
        if not self.supported:
            raise RuntimeError("MBA not supported on this node")
        current = self.throttle_level(job_id)
        lower = [level for level in MBA_LEVELS if level < current - 1e-9]
        new_level = lower[0] if lower else MBA_LEVELS[-1]
        self._apply(job_id, new_level)
        return new_level

    def release(self, job_id: str) -> None:
        """Lift any throttle on ``job_id`` (e.g., when it finishes)."""
        if self._levels.pop(job_id, None) is not None and self.monitor.has(job_id):
            self.monitor.set_cap(job_id, None)

    def throttled_jobs(self) -> Dict[str, float]:
        return dict(self._levels)

    def has_throttles(self) -> bool:
        """O(1): is any job currently throttled on this node?"""
        return bool(self._levels)

    def _apply(self, job_id: str, level: float) -> None:
        usage = self.monitor.usage_of(job_id)
        if abs(level - 1.0) < 1e-9:
            self._levels.pop(job_id, None)
            self.monitor.set_cap(job_id, None)
        else:
            self._levels[job_id] = level
            self.monitor.set_cap(job_id, usage.demand * level)
