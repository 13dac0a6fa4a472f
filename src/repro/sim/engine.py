"""The discrete-event engine.

A thin, fast event loop: a binary heap of :class:`~repro.sim.events.Event`
records, a :class:`~repro.sim.clock.Clock`, and a run loop with optional
horizon and step limits.  Everything else in the library (jobs arriving,
training iterations completing, profiling steps firing, bandwidth monitors
sampling) is expressed as events against this engine.

Example — same-time events fire in schedule order, time advances with the
head of the queue::

    >>> engine = Engine()
    >>> order = []
    >>> _ = engine.schedule(2.0, lambda: order.append("late"))
    >>> _ = engine.schedule(1.0, lambda: order.append("early"))
    >>> engine.run()
    2
    >>> order
    ['early', 'late']
    >>> engine.now
    2.0
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.sim.clock import Clock
from repro.sim.events import Event, EventHandle, EventPriority

#: An engine observer: called after each fired event with the event record.
Observer = Callable[[Event], None]


class Engine:
    """Deterministic discrete-event simulation engine."""

    def __init__(self, start: float = 0.0) -> None:
        self.clock = Clock(start)
        #: Current simulation time (seconds).  A plain attribute mirroring
        #: ``clock.now``: it is the hottest read in the simulator, and the
        #: old two-property chain (``Engine.now`` -> ``Clock.now``) cost two
        #: descriptor calls per read.  Only the engine advances the clock,
        #: so the mirror is re-synced at the three advance sites (event
        #: dispatch, the final horizon advance in :meth:`run`, and
        #: :meth:`begin_restore`) and can never go stale.
        self.now: float = self.clock.now
        # Heap entries are (time, priority, seq, event) tuples rather than
        # Event records: tuple comparison short-circuits in C, and seq is
        # unique so the Event field is never compared.
        self._queue: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        self._fired = 0
        self._live = 0
        self._running = False
        self._observers: list[Observer] = []
        #: The category the executing action gave itself through
        #: recategorize_current_event; an observer that books by category
        #: reads it after the event and resets it to None.
        self.event_category: Optional[str] = None
        # Checkpoint-restore bookkeeping: tag -> (time, priority, seq) of
        # snapshotted live events awaiting a rearm() claim.  None outside
        # a begin_restore()/finish_restore() window.
        self._pending_rearm: Optional[Dict[str, Tuple[float, int, int]]] = None

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued.

        O(1): maintained as a counter incremented on schedule and
        decremented on cancel/pop, never by scanning the heap.
        """
        return self._live

    @property
    def fired(self) -> int:
        """Number of events executed so far."""
        return self._fired

    def schedule(
        self,
        when: float,
        action: Callable[[], Any],
        *,
        priority: int = EventPriority.SCHEDULE,
        tag: str = "",
    ) -> EventHandle:
        """Schedule ``action`` to run at absolute time ``when``.

        Returns:
            A handle whose :meth:`~repro.sim.events.EventHandle.cancel`
            removes the event (lazily).

        Raises:
            ValueError: when scheduling in the past.
        """
        if when < self.now:
            raise ValueError(
                f"cannot schedule event {tag!r} at {when} (now={self.now})"
            )
        event = Event(
            time=float(when),
            priority=int(priority),
            seq=self._seq,
            action=action,
            tag=tag,
        )
        self._seq += 1
        heapq.heappush(
            self._queue, (event.time, event.priority, event.seq, event)
        )
        self._live += 1
        return EventHandle(event, self)

    def schedule_in(
        self,
        delay: float,
        action: Callable[[], Any],
        *,
        priority: int = EventPriority.SCHEDULE,
        tag: str = "",
    ) -> EventHandle:
        """Schedule ``action`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"negative delay for event {tag!r}: {delay}")
        return self.schedule(
            self.now + delay, action, priority=priority, tag=tag
        )

    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or ``None`` if the queue is drained."""
        self._discard_dead()
        if not self._queue:
            return None
        return self._queue[0][0]

    def step(self) -> bool:
        """Fire the single next live event.

        Returns:
            ``True`` if an event fired, ``False`` if the queue was empty.
        """
        self._discard_dead()
        if not self._queue:
            return False
        self._fire(heapq.heappop(self._queue)[3])
        return True

    def _fire(self, event: Event) -> None:
        """Execute one just-popped live event."""
        self._live -= 1
        event.fired = True
        self.clock.advance_to(event.time)
        self.now = event.time
        self._fired += 1
        event.action()
        if self._observers:
            for observer in tuple(self._observers):
                observer(event)

    def recategorize_current_event(self, category: str) -> None:
        """Re-attribute the currently executing event to ``category``.

        Called from *inside* an event action when it resolves to a
        distinct fast path: the runner books a skipped scheduling pass
        under ``schedule-skip`` instead of ``schedule-pass``, and a stale
        completion timer under ``completion-stale``.  The category is for
        observers (:class:`repro.profiling.Profiler`); the run itself is
        unchanged.
        """
        self.event_category = category

    def add_observer(self, observer: Observer) -> None:
        """Register a post-event callback (e.g. the invariant auditor).

        Observers run after each event's action returns; they fire no
        events and do not advance the clock, so an observed run stays
        byte-identical to an unobserved one.
        """
        if observer in self._observers:
            raise ValueError("observer already registered")
        self._observers.append(observer)

    def remove_observer(self, observer: Observer) -> None:
        """Unregister a previously-added observer. Idempotent."""
        if observer in self._observers:
            self._observers.remove(observer)

    def run(
        self,
        *,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Run the loop until the queue drains, ``until``, or ``max_events``.

        Events scheduled exactly at ``until`` still fire; the first event
        strictly beyond ``until`` stops the loop (and stays queued).  When a
        horizon is given the clock is advanced to it on exit so that
        time-weighted metrics cover the full window.

        Returns:
            The number of events fired by this call.
        """
        if self._running:
            raise RuntimeError("engine.run() is not reentrant")
        self._running = True
        fired_before = self._fired
        queue = self._queue
        try:
            while True:
                if max_events is not None and self._fired - fired_before >= max_events:
                    break
                while queue and queue[0][3].cancelled:
                    heapq.heappop(queue)
                if not queue:
                    break
                if until is not None and queue[0][0] > until:
                    break
                self._fire(heapq.heappop(queue)[3])
        finally:
            self._running = False
        if until is not None and self.clock.now < until:
            self.clock.advance_to(until)
            self.now = until
        return self._fired - fired_before

    # ------------------------------------------------------------------ #
    # Checkpoint / restore
    #
    # Events hold closures, so the heap itself is never serialized.  A
    # snapshot records the *inventory* of live events — ``(time,
    # priority, seq, tag)`` — and restore expects each owning subsystem
    # to re-arm its own timers by tag, reconstructing the closure from
    # its restored state.  Preserving the original seq numbers (and the
    # pre-crash ``_seq`` counter) keeps same-time tie-breaking, and thus
    # the whole remaining run, byte-identical to the uninterrupted one.

    def snapshot(self) -> Dict[str, Any]:
        """Serializable engine state: clock, counters, live-event inventory."""
        live: List[List[Any]] = sorted(
            [event.time, event.priority, event.seq, event.tag]
            for _, _, _, event in self._queue
            if not event.cancelled and not event.fired
        )
        return {
            "now": self.clock.now,
            "seq": self._seq,
            "fired": self._fired,
            "live": live,
        }

    def begin_restore(self, state: Dict[str, Any]) -> None:
        """Enter restore mode: adopt counters, clear the heap.

        Every event scheduled before this call (construction-time
        arrivals, monitors, fault arms) is discarded; subsystems must
        claim their snapshotted events back via :meth:`rearm` before
        :meth:`finish_restore` seals the window.
        """
        if self._pending_rearm is not None:
            raise RuntimeError("engine restore already in progress")
        self._queue.clear()
        self._live = 0
        self._seq = int(state["seq"])
        self._fired = int(state["fired"])
        now = float(state["now"])
        if now > self.clock.now:
            self.clock.advance_to(now)
        self.now = self.clock.now
        pending: Dict[str, Tuple[float, int, int]] = {}
        for time, priority, seq, tag in state["live"]:
            if tag in pending:
                raise RuntimeError(
                    f"snapshot has duplicate live event tag {tag!r}"
                )
            pending[str(tag)] = (float(time), int(priority), int(seq))
        self._pending_rearm = pending

    def rearm(self, tag: str, action: Callable[[], Any]) -> EventHandle:
        """Re-schedule one snapshotted live event under its original
        ``(time, priority, seq)``, claiming it from the restore inventory."""
        if self._pending_rearm is None:
            raise RuntimeError("rearm() outside an engine restore")
        entry = self._pending_rearm.pop(tag, None)
        if entry is None:
            raise RuntimeError(
                f"no snapshotted live event with tag {tag!r} to re-arm"
            )
        time, priority, seq = entry
        event = Event(
            time=time, priority=priority, seq=seq, action=action, tag=tag
        )
        heapq.heappush(self._queue, (time, priority, seq, event))
        self._live += 1
        return EventHandle(event, self)

    def pending_rearm_tags(self) -> Tuple[str, ...]:
        """Tags snapshotted live but not yet claimed by :meth:`rearm`."""
        if self._pending_rearm is None:
            return ()
        return tuple(sorted(self._pending_rearm))

    def finish_restore(self) -> None:
        """Seal the restore window; every snapshotted event must be claimed."""
        if self._pending_rearm is None:
            raise RuntimeError("finish_restore() outside an engine restore")
        unclaimed = sorted(self._pending_rearm)
        self._pending_rearm = None
        if unclaimed:
            raise RuntimeError(
                "restore left snapshotted events unclaimed: "
                + ", ".join(repr(tag) for tag in unclaimed)
            )

    def _on_handle_cancelled(self, event: Event) -> None:
        """EventHandle callback: a queued live event just went dead."""
        self._live -= 1

    def _discard_dead(self) -> None:
        # Dead events were already removed from the live count at cancel
        # time; here they only leave the heap.
        while self._queue and self._queue[0][3].cancelled:
            heapq.heappop(self._queue)

    def __repr__(self) -> str:
        return (
            f"Engine(now={self.clock.now:.3f}, pending={self.pending}, "
            f"fired={self._fired})"
        )
