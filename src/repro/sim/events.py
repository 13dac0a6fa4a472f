"""Event records for the discrete-event engine.

Events are ordered by ``(time, priority, sequence)``.  The sequence number is
assigned by the engine at scheduling time, which makes ordering of
same-time, same-priority events FIFO and therefore deterministic.

Cancellation uses the *tombstone* idiom: an :class:`EventHandle` marks the
event dead, and the engine discards dead events when they surface.  This is
O(1) per cancellation and avoids re-heapifying.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Optional


class EventPriority(enum.IntEnum):
    """Tie-break order for events scheduled at the same instant.

    Completions run before arrivals so that resources freed at time ``t`` are
    visible to jobs arriving at ``t``; scheduler passes run last so they see
    a settled cluster state.

    >>> EventPriority.COMPLETION < EventPriority.ARRIVAL < EventPriority.SCHEDULE
    True
    """

    COMPLETION = 0
    MONITOR = 1
    ARRIVAL = 2
    SCHEDULE = 3


@dataclass(order=True, slots=True)
class Event:
    """A scheduled callback.

    Attributes:
        time: absolute simulation time at which to fire.
        priority: tie-break class, see :class:`EventPriority`.
        seq: engine-assigned sequence number (FIFO within ties).
        action: zero-argument callable invoked when the event fires;
            ``None`` once the event has fired or been cancelled, or after
            :meth:`~repro.sim.engine.Engine.detach`.
        tag: free-form label used in error messages and engine traces.
    """

    time: float
    priority: int
    seq: int
    action: Optional[Callable[[], Any]] = field(compare=False)
    tag: str = field(compare=False, default="")
    cancelled: bool = field(compare=False, default=False)
    fired: bool = field(compare=False, default=False)


class EventHandle:
    """Cancellation handle returned by :meth:`Engine.schedule`.

    ``owner`` (when given) is notified on the cancelled→dead transition so
    the engine can keep a live-event counter without scanning its heap.
    """

    __slots__ = ("_event", "_owner")

    def __init__(self, event: Event, owner: Any = None) -> None:
        self._event = event
        self._owner = owner

    @property
    def time(self) -> float:
        """The time the event is (or was) scheduled to fire."""
        return self._event.time

    @property
    def tag(self) -> str:
        return self._event.tag

    @property
    def cancelled(self) -> bool:
        return self._event.cancelled

    def cancel(self) -> None:
        """Mark the event dead; the engine will skip it. Idempotent.

        Cancelling an event that already fired is a no-op: the callback
        cannot be un-run, and the owner's live count must not drift.
        """
        if self._event.cancelled or self._event.fired:
            return
        self._event.cancelled = True
        # The action can never run now; holding it would only keep its
        # closure's owner alive (see :meth:`Engine._fire`).
        self._event.action = None
        if self._owner is not None:
            self._owner._on_handle_cancelled(self._event)

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        return f"EventHandle(time={self.time:.3f}, tag={self.tag!r}, {state})"
