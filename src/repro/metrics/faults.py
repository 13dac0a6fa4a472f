"""Failure and recovery accounting.

One :class:`FaultStats` per run, owned by the metrics collector.  The
runner's failure paths push events into it; the experiment harness reads
downtime, restart counts, and goodput lost to failures out of it.  All
counters stay zero on failure-free runs, so reports for the paper's
original (perfectly reliable) setting are unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.sim.state import FLOAT, INT, NODE_ID, Items, Stateful, Struct


@dataclass
class FaultStats(Stateful):
    """What infrastructure failures cost one simulation run."""

    #: Whole-node crash events.
    node_failures: int = 0
    #: Single-device failure events.
    gpu_failures: int = 0
    #: MBM telemetry dropout windows injected.
    telemetry_dropouts: int = 0
    #: CPU-job straggler episodes injected.
    stragglers: int = 0
    #: Jobs killed by a failure and sent back to their array head.
    restarts: int = 0
    #: Quarantine windows entered by the node-health tracker.
    quarantines: int = 0
    #: Training iterations lost between the last checkpoint and the crash.
    lost_gpu_iterations: float = 0.0
    #: CPU-job work-seconds lost (CPU jobs restart from scratch).
    lost_cpu_seconds: float = 0.0
    #: Completed node outage time (down → recovered).
    node_downtime_s: float = 0.0
    _down_since: Dict[int, float] = field(default_factory=dict)

    #: The counters, then the open outages as sorted ``[node, since]``.
    STATE = Struct(
        ("node_failures", INT), ("gpu_failures", INT), ("telemetry_dropouts", INT),
        ("stragglers", INT), ("restarts", INT), ("quarantines", INT),
        ("lost_gpu_iterations", FLOAT), ("lost_cpu_seconds", FLOAT),
        ("node_downtime_s", FLOAT),
        ("down_since", "_down_since", Items((NODE_ID,), FLOAT)),
    )

    # ------------------------------------------------------------------ #
    # Node outage windows

    def node_down(self, node_id: int, now: float) -> None:
        self._down_since.setdefault(node_id, now)

    def node_up(self, node_id: int, now: float) -> None:
        since = self._down_since.pop(node_id, None)
        if since is not None:
            self.node_downtime_s += now - since

    def downtime_through(self, now: float) -> float:
        """Total node downtime including outages still open at ``now``."""
        open_s = sum(
            max(0.0, now - since) for since in self._down_since.values()
        )
        return self.node_downtime_s + open_s
