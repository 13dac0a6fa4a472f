"""Memory-bandwidth monitoring (the simulated Intel MBM).

The paper's contention eliminator uses Intel Memory Bandwidth Monitoring to
read, per node, (a) the total memory bandwidth in use and (b) each job's
contribution (Sec. V-D).  Here the monitor is also the arbiter: given each
job's *demand* (from the performance model) and any per-job caps (from the
simulated MBA, :mod:`repro.cluster.mba`), it computes each job's *granted*
bandwidth by max-min fair water-filling over the node's capacity.

A job whose grant is below its demand runs its memory-bound work slower by
the ratio ``granted / demand`` — that is how contention reaches the
performance model.  Every arbitration records the jobs whose ratio moved
(see :meth:`BandwidthMonitor.drain_changed`), so the runner re-prices
only those instead of every resident.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Set, Tuple

from repro.sim.state import BOOL, FLOAT, INT, JOB_ID, ListOf, Nullable, Record, Refs
from repro.sim.state import Stateful, Struct


@dataclass
class BandwidthUsage:
    """One job's bandwidth state on one node (all values in GB/s)."""

    job_id: str
    demand: float
    is_cpu_job: bool
    is_inference: bool = False
    cap: Optional[float] = None
    granted: float = 0.0
    #: ``granted / demand`` (1.0 at zero demand), set by every arbitration.
    ratio: float = 1.0

    @property
    def effective_demand(self) -> float:
        """Demand after applying any MBA cap."""
        if self.cap is None:
            return self.demand
        return min(self.demand, self.cap)


_USAGE = Record(
    BandwidthUsage, job_id=JOB_ID, demand=FLOAT, is_cpu_job=BOOL,
    is_inference=BOOL, cap=Nullable(FLOAT), granted=FLOAT,
)


class BandwidthMonitor(Stateful):
    """Per-node bandwidth accounting and fair-share arbitration."""

    def __init__(self, capacity_gbps: float) -> None:
        if capacity_gbps <= 0:
            raise ValueError(f"bandwidth capacity must be positive: {capacity_gbps}")
        self.capacity_gbps = float(capacity_gbps)
        self._usages: Dict[str, BandwidthUsage] = {}
        self._outage_until = float("-inf")
        self._last_sample_time: Optional[float] = None
        # Grants only change inside _arbitrate, so the total is maintained
        # there instead of being re-summed on every pressure reading.
        self._total_granted = 0.0
        self._cpu_job_count = 0
        #: ``(threshold, wake)`` installed by :meth:`watch_pressure`.
        self._watch: Optional[Tuple[float, Callable[[], None]]] = None
        #: Jobs whose grant ratio moved (or that registered) since the
        #: last :meth:`drain_changed`.
        self._changed: Set[str] = set()

    # ------------------------------------------------------------------ #
    # Telemetry health (fault injection)

    def begin_outage(self, until: float) -> None:
        """Blind the monitor until ``until`` (simulated MBM dropout).

        Overlapping outages extend rather than shorten each other; the
        arbitration below keeps running on ground truth — only *readings*
        are withheld, which is exactly what a dead perf counter does.
        """
        self._outage_until = max(self._outage_until, until)

    def telemetry_up(self, now: float) -> bool:
        return now >= self._outage_until

    def observe(self, now: float) -> Optional[float]:
        """Read total bandwidth pressure, or ``None`` during an outage.

        Successful reads refresh the sample timestamp that
        :meth:`sample_age` reports, so consumers can distinguish "briefly
        blind" from "stale beyond trust".
        """
        if not self.telemetry_up(now):
            return None
        self._last_sample_time = now
        return self.pressure

    def sample_age(self, now: float) -> float:
        """Seconds since the last successful read (inf if never read)."""
        if self._last_sample_time is None:
            return float("inf")
        return now - self._last_sample_time

    def sync_sample_time(self, when: float) -> None:
        """Adopt ``when`` as the last successful read time (if newer).

        Used by the activity-indexed monitor: a node outside the active
        set is *provably* telemetry-up at every skipped tick, so when it
        re-enters the set the runner back-fills the sample timestamp an
        eager per-tick :meth:`observe` would have left — the staleness
        window then behaves identically to a monitor that was never
        skipped.  Callers own that proof; this only moves the stamp
        forward, never back.
        """
        if self._last_sample_time is None or when > self._last_sample_time:
            self._last_sample_time = when

    def watch_pressure(self, threshold: float, wake: Callable[[], None]) -> None:
        """Call ``wake`` whenever this node hosts a CPU job at a pressure
        of at least ``threshold``: now, if that holds already, and after
        every arbitration that leaves it so.

        Every grant change runs :meth:`_arbitrate`, so no pressure change
        escapes the watch.  The activity-indexed monitor relies on that
        to let CPU-hosting nodes below the eliminator's threshold drop
        out of its active set.
        """
        self._watch = (threshold, wake)
        self._check_watch()

    def unwatch_pressure(self) -> None:
        """Remove the watch :meth:`watch_pressure` installed, if any."""
        self._watch = None

    def _check_watch(self) -> None:
        watch = self._watch
        if (
            watch is not None
            and self._cpu_job_count > 0
            and self.pressure >= watch[0]
        ):
            watch[1]()

    # ------------------------------------------------------------------ #
    # Registration

    def register(
        self,
        job_id: str,
        demand_gbps: float,
        *,
        is_cpu_job: bool,
        is_inference: bool = False,
    ) -> None:
        """Start tracking ``job_id`` with the given bandwidth demand."""
        if demand_gbps < 0:
            raise ValueError(f"negative bandwidth demand for {job_id}: {demand_gbps}")
        if job_id in self._usages:
            raise RuntimeError(f"job {job_id} already registered on this monitor")
        self._usages[job_id] = BandwidthUsage(
            job_id=job_id,
            demand=float(demand_gbps),
            is_cpu_job=is_cpu_job,
            is_inference=is_inference,
        )
        if is_cpu_job:
            self._cpu_job_count += 1
        self._changed.add(job_id)
        self._arbitrate()

    def update_demand(self, job_id: str, demand_gbps: float) -> None:
        """Change a registered job's demand (e.g., the model changed phase)."""
        if demand_gbps < 0:
            raise ValueError(f"negative bandwidth demand for {job_id}: {demand_gbps}")
        self._usages[job_id].demand = float(demand_gbps)
        self._arbitrate()

    def unregister(self, job_id: str) -> None:
        """Stop tracking ``job_id``; silently ignores unknown ids so release
        paths do not have to know whether a job ever touched memory."""
        usage = self._usages.pop(job_id, None)
        if usage is not None:
            if usage.is_cpu_job:
                self._cpu_job_count -= 1
            self._changed.discard(job_id)
            self._arbitrate()

    # ------------------------------------------------------------------ #
    # Throttling (driven by the MBA controller)

    def set_cap(self, job_id: str, cap_gbps: Optional[float]) -> None:
        """Apply (or with ``None``, lift) an MBA throttle on ``job_id``."""
        if cap_gbps is not None and cap_gbps < 0:
            raise ValueError(f"negative bandwidth cap for {job_id}: {cap_gbps}")
        self._usages[job_id].cap = cap_gbps
        self._arbitrate()

    # ------------------------------------------------------------------ #
    # Readings (what the eliminator sees)

    @property
    def total_demand(self) -> float:
        return sum(usage.effective_demand for usage in self._usages.values())

    @property
    def unthrottled_demand_gbps(self) -> float:
        """Total raw demand, ignoring MBA caps — what the node's pressure
        *would* be if every throttle were lifted (the eliminator's release
        test)."""
        return sum(usage.demand for usage in self._usages.values())

    @property
    def total_granted(self) -> float:
        return self._total_granted

    @property
    def pressure(self) -> float:
        """Total granted bandwidth as a fraction of capacity, in [0, 1]."""
        return self._total_granted / self.capacity_gbps

    def usage_of(self, job_id: str) -> BandwidthUsage:
        return self._usages[job_id]

    def has(self, job_id: str) -> bool:
        return job_id in self._usages

    def has_cpu_jobs(self) -> bool:
        """O(1): does any registered usage belong to a CPU job?"""
        return self._cpu_job_count > 0

    def cpu_job_usages(self) -> Dict[str, BandwidthUsage]:
        """CPU jobs' usages, sorted view for the eliminator to pick victims."""
        return {
            job_id: usage
            for job_id, usage in self._usages.items()
            if usage.is_cpu_job
        }

    def grant_ratio(self, job_id: str) -> float:
        """granted / demand for ``job_id`` — 1.0 means uncontended.

        Jobs with zero demand are by definition uncontended.
        """
        return self._usages[job_id].ratio

    def drain_changed(self) -> Set[str]:
        """The jobs whose grant ratio moved since the last drain, plus
        jobs registered since then; empties the record.

        Every write to a grant or a demand runs :meth:`_water_fill`,
        which compares each job's new ratio with the one it last
        recorded, so a job missing here reads the same ratio it did at
        the last drain.
        """
        changed = self._changed
        if changed:
            self._changed = set()
        return changed

    # ------------------------------------------------------------------ #
    # Checkpoint / restore: grants are carried verbatim, so a restore never
    # re-runs _arbitrate and needs no proof that it would land on them.

    STATE = Struct(
        ("usages", "_usages", ListOf(_USAGE, by="job_id")),
        ("outage_until", "_outage_until", FLOAT),
        ("last_sample_time", "_last_sample_time", Nullable(FLOAT)),
        ("total_granted", "_total_granted", FLOAT),
        ("cpu_job_count", "_cpu_job_count", INT),
    )

    def _after_load(self, refs: Refs) -> None:
        # Snapshots fall between events, when every touched node is drained.
        for usage in self._usages.values():
            if usage.demand > 0:
                usage.ratio = usage.granted / usage.demand
        self._changed = set()

    # ------------------------------------------------------------------ #
    # Arbitration

    def _arbitrate(self) -> None:
        """Re-grant every job, then let the pressure watch look."""
        self._water_fill()
        self._check_watch()

    def _water_fill(self) -> None:
        """Max-min fair water-filling of capacity over effective demands.

        Classic algorithm: repeatedly split the remaining capacity equally
        among unsatisfied jobs; jobs whose demand is below the equal share
        are granted their demand exactly and leave the pool.  Afterwards
        each job's grant ratio is refreshed, and a job whose ratio moved
        joins the changed-set.
        """
        usages = list(self._usages.values())
        demands = [u.effective_demand for u in usages]
        if self.capacity_gbps - sum(demands) > 1e-9:
            # Uncontended fast path: with headroom comfortably past the
            # loop's 1e-12 remaining-capacity guard (the 1e-9 margin dwarfs
            # any sequential-subtraction rounding the rounds could
            # accumulate), water-filling provably grants every job its
            # effective demand exactly — each round's fair share exceeds
            # the smallest pending demand, so the rounds drain without the
            # guard ever tripping.  Skip them and land on the identical
            # grant vector directly.
            for usage, demand in zip(usages, demands):
                usage.granted = demand if demand > 0 else 0.0
        else:
            pending = [u for u in usages if u.effective_demand > 0]
            for usage in usages:
                usage.granted = 0.0
            remaining = self.capacity_gbps
            while pending and remaining > 1e-12:
                fair_share = remaining / len(pending)
                satisfied = [
                    u for u in pending if u.effective_demand <= fair_share
                ]
                if satisfied:
                    for usage in satisfied:
                        usage.granted = usage.effective_demand
                        remaining -= usage.effective_demand
                    pending = [
                        u for u in pending if u.effective_demand > fair_share
                    ]
                else:
                    for usage in pending:
                        usage.granted = fair_share
                    remaining = 0.0
                    pending = []
            # Guard against float drift producing grants epsilon above
            # demand.
            for usage, demand in zip(usages, demands):
                usage.granted = min(usage.granted, demand)
        changed = self._changed
        total = 0.0
        for usage in usages:
            granted = usage.granted
            if math.isnan(granted):
                raise ArithmeticError(f"NaN bandwidth grant for {usage.job_id}")
            total += granted
            demand = usage.demand
            ratio = granted / demand if demand > 0 else 1.0
            if ratio != usage.ratio:
                usage.ratio = ratio
                changed.add(usage.job_id)
        self._total_granted = total
