"""Dirty-set change tracking for incremental scheduling passes.

Every policy keeps a :class:`PassGate` that answers one question per queue
group: *could this group's outcome differ from the last pass?*  The gate is
fed from two directions:

* **queue mutations** — the policy marks a group dirty when a job enters
  its examination window (a submit that lands inside the backfill window,
  any ``appendleft`` re-queue);
* **capacity increases** — the cluster's ``capacity_freed`` counter (see
  :meth:`repro.cluster.cluster.Cluster.capacity_freed`) advances on every
  release/resize-down/mark_up/repair/quarantine-exit.  When it moved since
  the last pass, *every* group is dirty: freed capacity can unblock any
  queued job.

The soundness argument (docs/scheduler-internals.md) rests on two facts:

1. a pass leaves every still-queued job *blocked* against its final free
   state (placement attempts are pure on failure, and capacity only flows
   out of the snapshot except along preemption decisions — which bump
   ``capacity_freed`` when executed, dirtying the next pass);
2. placement feasibility is monotone in free capacity, so consuming
   capacity between passes cannot make a blocked job placeable.

A clean group therefore re-derives exactly its previous answer — zero
decisions — and skipping it is byte-identical to re-scanning it.

``REPRO_REFERENCE=1`` (:func:`reference_mode`) disables the whole
machinery (gates report every group dirty, the snapshot cache is
bypassed); the parity property test runs each policy both ways and
asserts identical decision streams.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Iterable, Optional, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.cluster import Cluster


def reference_mode() -> bool:
    """True when ``REPRO_REFERENCE`` asks for the reference behaviour.

    The one A/B switch for every incremental and lazy layer: no pass
    skipping, no partial snapshot refresh, no share heaps or census
    cache, and in the runner no lazy completion timers, no skipped
    monitor ticks, no changed-set repricing and no reprice memo.  Each
    reader samples it once at construction: every policy through its
    :class:`PassGate` (which also tells ``FreeState.of`` whether to
    bypass its cache), the runner in its constructor."""
    return bool(os.environ.get("REPRO_REFERENCE"))


class PassGate:
    """Tracks, per queue group, whether a scheduling pass must re-scan it.

    The gate starts all-dirty (the first pass always runs), and
    :meth:`pass_done` re-arms it: groups go clean and the current
    ``capacity_freed`` reading is remembered.  Execution of the pass's
    decisions happens *after* ``pass_done`` — so releases performed by
    executed preemptions advance ``capacity_freed`` past the remembered
    value and dirty the next pass, exactly as required.
    """

    __slots__ = ("_groups", "_dirty", "_freed_seen", "_enabled")

    def __init__(self, groups: Iterable[str]) -> None:
        self._groups: Tuple[str, ...] = tuple(groups)
        self._dirty: Set[str] = set(self._groups)
        #: ``capacity_freed`` at the end of the last completed pass; -1
        #: means "no pass yet", which never equals a real counter value.
        self._freed_seen = -1
        self._enabled = not reference_mode()

    @property
    def enabled(self) -> bool:
        return self._enabled

    def mark(self, group: str) -> None:
        """A queue mutation put new work inside ``group``'s window."""
        self._dirty.add(group)

    def mark_all(self) -> None:
        """Conservative reset (checkpoint restore, unknown mutation)."""
        self._dirty.update(self._groups)
        self._freed_seen = -1

    def fresh_capacity(self, cluster: "Cluster") -> bool:
        """Capacity was freed since the last pass finished."""
        return cluster.capacity_freed != self._freed_seen

    def should_scan(self, group: str, cluster: "Cluster") -> bool:
        """Must the coming pass re-examine ``group``'s queues?"""
        if not self._enabled:
            return True
        return group in self._dirty or self.fresh_capacity(cluster)

    def can_skip_pass(
        self, cluster: "Cluster", queued: Optional[int] = None
    ) -> bool:
        """True when the whole pass would produce zero decisions and
        mutate nothing: every group is clean, or ``queued`` (the
        policy's count of queued jobs, when it keeps one) is 0.  Every
        start, reclaim and preempt decision is made for a queued job, so
        a pass over empty queues has nothing to decide."""
        if not self._enabled:
            return False
        return queued == 0 or (
            not self._dirty and not self.fresh_capacity(cluster)
        )

    def pass_done(self, cluster: "Cluster") -> None:
        """A full evaluation of every dirty group just finished."""
        self._dirty.clear()
        self._freed_seen = cluster.capacity_freed
