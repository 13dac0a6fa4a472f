"""The real-time contention eliminator (Sec. V-D).

Control loop, per node, every monitoring tick:

1. read total memory-bandwidth usage (the simulated MBM);
2. if it exceeds the threshold (75 % of capacity by default) *and* a
   co-located DNN training job's GPU utilization has dropped below its
   observed peak, pick the CPU job granted the most bandwidth and throttle
   it one MBA level;
3. on nodes without MBA support, halve that CPU job's cores instead.

Only CPU jobs are ever throttled: "DNN training jobs have higher priority
than all CPU jobs", and trainers do not contend with each other severely
(Sec. IV-C).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, Optional, Tuple

from repro.cluster.node import Node
from repro.perfmodel.contention import BANDWIDTH_PRESSURE_THRESHOLD
from repro.schedulers.base import SchedulerContext
from repro.sim.engine import Timer
from repro.sim.events import EventHandle
from repro.sim.state import BOOL, FLOAT, INT, JOB_ID, NODE_ID, DictOf, Items, Refs
from repro.sim.state import Stateful, Struct

#: Flap cooldown the CLI applies under active fault injection (the config
#: default stays 0.0 so failure-free runs are byte-identical to the
#: pre-damping behaviour).
CHAOS_FLAP_COOLDOWN_S = 120.0

#: The periodic monitor's next tick.
ELIMINATOR_TICK = Timer("eliminator-tick")


@dataclass(frozen=True)
class EliminatorConfig:
    """Knobs of the eliminator loop."""

    bandwidth_threshold: float = BANDWIDTH_PRESSURE_THRESHOLD
    monitor_interval_s: float = 30.0
    utilization_drop: float = 0.01
    #: Only CPU jobs granted at least this share of node bandwidth count as
    #: "bandwidth-intensive programs" (Sec. VI-E) worth restricting; below
    #: it the pressure is the trainers' own, which Sec. IV-C deems benign.
    min_victim_share: float = 0.08
    #: How old an MBM reading may be before the eliminator refuses to act
    #: on it.  During a telemetry dropout the node keeps its last sample;
    #: once that sample ages past this window the node is skipped entirely
    #: (no throttles, no halvings, no releases) until telemetry returns.
    staleness_window_s: float = 60.0
    #: Throttle-flap damping: after a victim's throttle is released, the
    #: same victim may not be throttled again on that node for this long.
    #: 0 disables damping (the default — release/re-throttle cycles in
    #: healthy runs keep their historical timing); the CLI switches it to
    #: :data:`CHAOS_FLAP_COOLDOWN_S` whenever fault injection is armed.
    flap_cooldown_s: float = 0.0
    enabled: bool = True

    def __post_init__(self) -> None:
        if not 0.0 < self.bandwidth_threshold <= 1.0:
            raise ValueError(
                f"bandwidth threshold out of (0, 1]: {self.bandwidth_threshold}"
            )
        if self.monitor_interval_s <= 0:
            raise ValueError(
                f"non-positive monitor interval: {self.monitor_interval_s}"
            )
        if self.utilization_drop < 0:
            raise ValueError(f"negative utilization drop: {self.utilization_drop}")
        if not 0.0 <= self.min_victim_share <= 1.0:
            raise ValueError(
                f"min_victim_share out of [0, 1]: {self.min_victim_share}"
            )
        if self.staleness_window_s < 0:
            raise ValueError(
                f"negative staleness window: {self.staleness_window_s}"
            )
        if self.flap_cooldown_s < 0:
            raise ValueError(
                f"negative flap cooldown: {self.flap_cooldown_s}"
            )


@dataclass
class ContentionEliminator(Stateful):
    """Per-cluster bandwidth-contention policeman."""

    config: EliminatorConfig = field(default_factory=EliminatorConfig)
    throttle_actions: int = 0
    halving_actions: int = 0
    #: Ticks on which a node was skipped for stale/missing telemetry.
    stale_skips: int = 0
    #: Throttle attempts suppressed by the flap cooldown.
    flap_suppressions: int = 0
    _peak_util: Dict[str, float] = field(default_factory=dict)
    #: (node_id, job_id) -> sim time of the last throttle release there.
    _released_at: Dict[Tuple[int, str], float] = field(default_factory=dict)
    _armed: bool = field(default=False)
    _tick_handle: Optional[EventHandle] = field(default=None)

    def start(self, context: SchedulerContext) -> None:
        """Arm the periodic monitor (idempotent, no-op when disabled).

        Re-armable: after :meth:`stop` (a simulated controller reset), a
        fresh ``start`` resumes the loop.
        """
        if not self.config.enabled or self._armed:
            return
        self._armed = True
        context.declare_timer(
            ELIMINATOR_TICK,
            partial(self._tick, context),
            requires=lambda _: [()] if self._armed else [],
            keep=self._keep_tick,
        )
        context.monitor_watch_pressure(self.config.bandwidth_threshold)
        self._arm(context)

    def stop(self) -> None:
        """Disarm the monitor: cancel the pending tick and allow a later
        :meth:`start` to re-arm.  Idempotent."""
        if self._tick_handle is not None:
            self._tick_handle.cancel()
            self._tick_handle = None
        self._armed = False

    def _arm(self, context: SchedulerContext) -> None:
        self._tick_handle = context.arm_timer(
            ELIMINATOR_TICK, self.config.monitor_interval_s
        )

    def _tick(self, context: SchedulerContext) -> None:
        # One index read instead of a per-node state_of: the tracker's
        # lazy transitions are idempotent at fixed now, so the set is
        # exactly the nodes the per-node check would have excluded.
        # A quarantined node hosts nothing to police (residents were
        # evicted at quarantine entry) and its telemetry is the least
        # trustworthy on the floor; leave those alone.
        now = context.now
        quarantined = set(context.cluster.health.quarantined_nodes(now))
        nodes = context.cluster.nodes
        # Activity-indexed: only nodes the context flags as active (live
        # throttles, CPU jobs at or above the threshold, or an open
        # telemetry outage) are examined.  A node outside the set could
        # only ever take the nothing-to-act-on fast path below, whose sole
        # side effect is the observe() freshness stamp — which the context
        # back-fills on re-activation — so the skip is decision-invisible.
        # The default context returns every node, reproducing the
        # historical full scan.
        for node_id in context.monitor_active_node_ids():
            node = nodes[node_id]
            if not node.is_up or node_id in quarantined:
                continue
            self._check_node(node, context)
        context.monitor_note_tick(now)
        self._arm(context)

    # ------------------------------------------------------------------ #

    def _check_node(self, node: Node, context: SchedulerContext) -> None:
        pressure = node.bandwidth.observe(context.now)
        sampled = pressure is not None
        if pressure is None:
            # Telemetry dropout.  A reading within the staleness window is
            # still trusted (the monitor's arbitration state has not moved
            # far); beyond it, acting would mean acting on garbage — skip
            # the node until its MBM comes back.
            if (
                node.bandwidth.sample_age(context.now)
                > self.config.staleness_window_s
            ):
                self.stale_skips += 1
                return
            pressure = node.bandwidth.pressure
        if not node.mba.has_throttles() and (
            not node.bandwidth.has_cpu_jobs()
            or pressure < self.config.bandwidth_threshold
        ):
            # Fast path for the common tick: with no throttle to relax,
            # and either no CPU job to throttle or pressure below the
            # trigger, neither branch below can act — pressure without a
            # CPU job is the trainers' own, which Sec. IV-C deems benign.
            # (The observe() above still ran, so sample freshness
            # bookkeeping is identical to the slow path.)  Deactivation
            # needs a *successful* observe: dropping a node whose
            # telemetry is down would break the back-fill invariant
            # ("outside the set implies telemetry up at every skipped
            # tick") the activity index relies on.  The context's
            # pressure watch brings the node back once a CPU-hosting
            # node reaches the threshold.
            if sampled:
                context.monitor_deactivate_node(node.node_id)
            return
        if pressure < self.config.bandwidth_threshold:
            self._relax_node(node, context)
            return
        if not self._training_degraded(node, context):
            return
        victim = self._pick_victim(
            node, self.config.min_victim_share * node.bandwidth.capacity_gbps
        )
        if victim is None:
            return
        if self._in_flap_cooldown(node.node_id, victim, context.now):
            # The same victim was just released; throttling it straight
            # back would oscillate (throttle -> pressure drops -> release
            # -> pressure returns -> throttle ...) with every cycle paid
            # in stretched CPU jobs.  Sit this tick out.
            self.flap_suppressions += 1
            return
        if node.mba.supported:
            steps = self._throttle_steps_needed(node, victim)
            throttled = False
            for _ in range(steps):
                if not context.throttle_cpu_job(victim, node.node_id):
                    break
                throttled = True
            if throttled:
                self.throttle_actions += 1
        else:
            context.halve_cpu_job_cores(victim)
            self.halving_actions += 1

    def _relax_node(self, node: Node, context: SchedulerContext) -> None:
        """Lift throttles whose reason has passed.

        A throttle is released when the node no longer hosts any training
        job, or when the node's *unthrottled* demand would stay below the
        threshold anyway.  Keeping a hog throttled after the trainers left
        only stretches the hog (and its core occupancy) for nobody's
        benefit.
        """
        throttled = node.mba.throttled_jobs()
        if not throttled:
            return
        has_trainers = any(gpu.owner is not None for gpu in node.gpus)
        if has_trainers:
            unthrottled_demand = node.bandwidth.unthrottled_demand_gbps
            target = self.config.bandwidth_threshold * node.bandwidth.capacity_gbps
            if unthrottled_demand > target:
                return
        for job_id in throttled:
            context.release_cpu_throttle(job_id, node.node_id)
            if self.config.flap_cooldown_s > 0:
                self._released_at[(node.node_id, job_id)] = context.now

    def _in_flap_cooldown(self, node_id: int, job_id: str, now: float) -> bool:
        if self.config.flap_cooldown_s <= 0:
            return False
        released = self._released_at.get((node_id, job_id))
        return released is not None and now - released < self.config.flap_cooldown_s

    def _throttle_steps_needed(self, node: Node, victim: str) -> int:
        """MBA levels to step down so the node lands below the threshold.

        One throttle *action* may span several 10 % levels: leaving the
        hog saturating the bus for another interval only stretches both
        the contention window and the hog itself.
        """
        usage = node.bandwidth.usage_of(victim)
        if usage.demand <= 0:
            return 1
        target_total = self.config.bandwidth_threshold * node.bandwidth.capacity_gbps
        others = node.bandwidth.total_granted - usage.granted
        desired_cap = max(0.0, target_total - others)
        desired_level = desired_cap / usage.demand
        current_level = node.mba.throttle_level(victim)
        if desired_level >= current_level:
            return 1
        # MBA levels are 10 % apart.
        steps = int(round((current_level - desired_level) / 0.1 + 0.499))
        return max(1, min(steps, 9))

    def _training_degraded(self, node: Node, context: SchedulerContext) -> bool:
        """True when some training job on the node runs below what it would
        reach on a quiet node (the paper's second trigger condition).

        The reference comes from the job's profiling history rather than
        its observed peak: a trainer placed onto an *already* contended
        node never exhibits a drop, but is degraded all the same.
        """
        for gpu in node.gpus:
            owner = gpu.owner
            if owner is None:
                continue
            if gpu.utilization > self._peak_util.get(owner, 0.0):
                self._peak_util[owner] = gpu.utilization
            try:
                expected = context.gpu_job_expected_utilization(owner)
            except KeyError:
                expected = self._peak_util.get(owner, 0.0)
            if gpu.utilization < expected - self.config.utilization_drop:
                return True
        return False

    @staticmethod
    def _pick_victim(node: Node, min_granted_gbps: float = 0.0) -> Optional[str]:
        """The bandwidth-hungriest CPU job on this node, if any qualifies.

        User-facing inference jobs are exempt: they outrank training
        (Sec. V-A), so they are never throttled.
        """
        best: Optional[Tuple[float, str]] = None
        for job_id, usage in node.bandwidth.cpu_job_usages().items():
            if usage.is_inference:
                continue
            key = (usage.granted, job_id)
            if best is None or key > best:
                best = key
        if best is None or best[0] <= 0 or best[0] < min_granted_gbps:
            return None
        return best[1]

    def forget_job(self, job_id: str) -> None:
        """Drop the peak-utilization memory of a finished job."""
        self._peak_util.pop(job_id, None)

    # ------------------------------------------------------------------ #
    # Checkpoint / restore

    STATE = Struct(
        ("throttle_actions", INT),
        ("halving_actions", INT),
        ("stale_skips", INT),
        ("flap_suppressions", INT),
        ("peak_util", "_peak_util", DictOf(JOB_ID, FLOAT)),
        ("released_at", "_released_at", Items((NODE_ID, JOB_ID), FLOAT)),
        ("armed", "_armed", BOOL),
    )

    def _after_load(self, refs: Refs) -> None:
        # The engine hands the tick timer back (:meth:`_keep_tick`).
        self._tick_handle = None

    def _keep_tick(self, handle: EventHandle) -> None:
        self._tick_handle = handle
