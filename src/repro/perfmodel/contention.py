"""Shared-resource contention state and its effect on CPU-side work.

The contention a DNN training job experiences on a node is summarized by
four numbers, all produced by :mod:`repro.cluster`:

* ``bw_grant_ratio`` — the job's granted/demanded memory bandwidth (from the
  node's max-min arbitration).  Below 1.0 the job's bandwidth-bound prep
  work stretches directly.
* ``node_bw_pressure`` — total node bandwidth over capacity.  Past the
  threshold (75 %, Sec. V-D) the memory system's queueing delays inflate
  every memory access; the paper attributes the NLP models' >=50 % drops to
  this "bus" effect rather than to their (tiny) own bandwidth demand.
* ``llc_pressure`` — total LLC footprint over capacity.  The paper finds
  *no* model LLC-sensitive (Fig. 7), so the default sensitivity is zero,
  but the term is modeled so the finding is an experiment, not an axiom.
* ``pcie_grant_ratio`` — granted/demanded PCIe throughput, used by
  :mod:`repro.perfmodel.pcie`.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Node bandwidth fraction beyond which latency effects kick in (Sec. V-D).
BANDWIDTH_PRESSURE_THRESHOLD = 0.75


@dataclass(frozen=True)
class ContentionState:
    """Snapshot of the shared-resource conditions a job sees on a node."""

    bw_grant_ratio: float = 1.0
    node_bw_pressure: float = 0.0
    llc_pressure: float = 0.0
    pcie_grant_ratio: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.bw_grant_ratio <= 1.0:
            raise ValueError(f"bw_grant_ratio out of (0, 1]: {self.bw_grant_ratio}")
        if not 0.0 < self.pcie_grant_ratio <= 1.0:
            raise ValueError(
                f"pcie_grant_ratio out of (0, 1]: {self.pcie_grant_ratio}"
            )
        if self.node_bw_pressure < 0 or self.llc_pressure < 0:
            raise ValueError(f"pressures must be non-negative: {self}")


#: The quiet-node baseline every characterization figure is normalized to.
UNCONTENDED = ContentionState()


def bandwidth_excess(state: ContentionState) -> float:
    """How far past the pressure threshold the node is, normalized to [0, ~].

    0.0 at or below the 75 % threshold, 1.0 at full capacity, and beyond 1.0
    when demand exceeds what the memory system can serve.
    """
    return excess_past_knee(state.node_bw_pressure)


def excess_past_knee(node_bw_pressure: float) -> float:
    """:func:`bandwidth_excess` of a raw node pressure reading."""
    threshold = BANDWIDTH_PRESSURE_THRESHOLD
    if node_bw_pressure <= threshold:
        return 0.0
    return (node_bw_pressure - threshold) / (1.0 - threshold)


def effect_key(state: ContentionState) -> tuple:
    """Collapse a contention snapshot to the values the speed model reads.

    :func:`repro.perfmodel.speed.iteration_time` consumes contention only
    through :func:`cpu_work_slowdown` and the PCIe penalty branch, i.e.
    through exactly four derived quantities: the grant ratio, the
    *post-threshold* bandwidth excess, the *post-capacity* LLC excess, and
    the PCIe grant ratio.  Two snapshots with equal keys therefore price
    to bit-identical breakdowns even when their raw pressures differ —
    which is the common case: below the 75 % knee every co-resident
    arrival/resize wobbles ``node_bw_pressure`` without moving the key.
    Repricing memos keyed on this tuple stay byte-identical while hitting
    far more often than ones keyed on the raw snapshot.
    """
    return (state.bw_grant_ratio,) + node_effect_key(
        state.node_bw_pressure, state.llc_pressure, state.pcie_grant_ratio
    )


def node_effect_key(
    node_bw_pressure: float, llc_pressure: float, pcie_grant_ratio: float
) -> tuple:
    """The node-level part of :func:`effect_key`: bandwidth excess past
    the knee, LLC excess past capacity, PCIe grant ratio.

    A job spanning several nodes sees the worst case of each raw reading
    over its nodes; each key value is monotone in the reading it derives
    from, so the job's key is the worst case of its nodes' keys.  While
    a node's key holds still, it can move a resident's price only
    through that resident's grant ratio.
    """
    return (
        excess_past_knee(node_bw_pressure),
        max(0.0, llc_pressure - 1.0),
        pcie_grant_ratio,
    )


def cpu_work_slowdown(
    state: ContentionState,
    *,
    bw_bound_fraction: float,
    contention_sensitivity: float,
    llc_sensitivity: float = 0.0,
) -> float:
    """Multiplier (>= 1) on the job's CPU-side work under contention.

    Composes three effects:

    1. the bandwidth-bound fraction ``beta`` of the prep work stretches by
       the inverse of the job's grant ratio (pure throughput starvation);
    2. the whole prep stretches by ``1 + sens * excess`` once the node is
       past the pressure threshold (latency/bus contention);
    3. an LLC term of the same form, zero-sensitivity by default.
    """
    if not 0.0 <= bw_bound_fraction <= 1.0:
        raise ValueError(f"bw_bound_fraction out of [0, 1]: {bw_bound_fraction}")
    if contention_sensitivity < 0 or llc_sensitivity < 0:
        raise ValueError("sensitivities must be non-negative")
    starvation = (1.0 - bw_bound_fraction) + bw_bound_fraction / state.bw_grant_ratio
    latency = 1.0 + contention_sensitivity * bandwidth_excess(state)
    llc_excess = max(0.0, state.llc_pressure - 1.0)
    llc = 1.0 + llc_sensitivity * llc_excess
    return starvation * latency * llc
