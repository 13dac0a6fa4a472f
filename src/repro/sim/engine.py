"""The discrete-event engine.

A thin, fast event loop: a binary heap of :class:`~repro.sim.events.Event`
records, the simulation time ``now``, and a run loop with optional
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
from typing import Any, Callable, Iterable, List, NamedTuple, Optional, Tuple

from repro.sim.events import Event, EventHandle, EventPriority
from repro.sim.state import FLOAT, INT, INT_KEY, JOB, JOB_ID, NODE_ID, NODE_KEY, STR
from repro.sim.state import CheckpointError, Codec, ListOf, Refs, Row, Stateful, Struct

#: An engine observer: called after each fired event with the event record.
Observer = Callable[[Event], None]

#: How each timer argument type reads back from tag text: ints are decimal
#: strings there, as in int dict keys.
_FROM_TAG = {JOB: JOB, JOB_ID: JOB_ID, NODE_ID: NODE_KEY, INT: INT_KEY}


class Timer:
    """A timer family: the tag of its events, ``name`` plus one argument
    per type (``JOB``, ``JOB_ID``, ``NODE_ID``, ``INT``; a job only
    first), and their priority; ``missing`` words the error for a required
    event a restored owner lacks (formatted with its key).  Owners bind it
    with :meth:`Engine.declare` and arm it with :meth:`Engine.arm`::

        >>> Timer("fault:gpu-repair", NODE_ID, INT).tag((3, 1))
        'fault:gpu-repair:3:1'
    """

    __slots__ = ("name", "args", "priority", "missing", "template", "by_job")

    def __init__(
        self,
        name: str,
        *args: Codec,
        priority: int = EventPriority.MONITOR,
        missing: str = "",
    ) -> None:
        if not all(arg in _FROM_TAG for arg in args) or {JOB, JOB_ID} & set(args[1:]):
            raise ValueError(f"timer {name!r}: arguments are JOB, JOB_ID, NODE_ID, INT")
        self.name, self.args, self.priority = name, args, int(priority)
        self.missing = missing
        #: The tag as a ``%`` template of ids, the cheapest format per event.
        self.template = name + ":%s" * len(args)
        self.by_job = args[:1] == (JOB,)

    def tag(self, args: Tuple[Any, ...]) -> str:
        return self.template % ((args[0].job_id, *args[1:]) if self.by_job else args)

    def decode(self, tag: str, path: str, ctx: Any) -> Tuple[Any, ...]:
        """The handler arguments in ``tag`` (which starts with ``name``),
        each checked against the run."""
        text = tag[len(self.name) + 1 :]
        # A job id may hold ":"; it is always the first argument.
        parts = text.rsplit(":", len(self.args) - 1) if text else []
        if len(parts) == len(self.args):
            values = tuple(
                _FROM_TAG[arg].load(part, path, ctx)
                for arg, part in zip(self.args, parts)
            )
            if self.tag(values) == tag:
                return values
        form = self.name + "".join(f":<{arg.name}>" for arg in self.args)
        raise CheckpointError(f"{path}: expected tag {form!r}, got {tag!r}")


#: ``refs`` -> keys of the events a restored owner requires live.
Requires = Callable[[Refs], Iterable[Tuple[Any, ...]]]


class _Family(NamedTuple):
    """A timer bound to its owner for one run (see :meth:`Engine.declare`)."""

    timer: Timer
    handler: Callable[..., Any]
    requires: Optional[Requires]
    keep: Optional[Callable[..., None]]


class _Timers(dict[str, _Family]):
    """Declared families by name; a class so a weak reference can watch it."""

    __slots__ = ("__weakref__",)


class _LiveEvent(Codec):
    """A live event ``[time, priority, seq, tag]``, re-armed as it loads;
    it loads as its family's name and key (see :meth:`Engine._rearm`)."""

    row = Row(FLOAT, INT, INT, STR)
    name = row.name

    def load(self, raw: Any, path: str, ctx: Any, key: Any = None) -> Any:
        return ctx.owner._rearm(*self.row.load(raw, path, ctx), path, ctx)


class Engine(Stateful):
    """Deterministic discrete-event simulation engine."""

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise ValueError(f"clock cannot start at negative time: {start}")
        #: Current simulation time (seconds).  A plain attribute: it is the
        #: hottest read in the simulator, so it must not cost a property
        #: call.  Only the engine writes it, at its three advance sites
        #: (event dispatch, the final horizon advance in :meth:`run`, and a
        #: checkpoint load), and it only moves forward.  Components
        #: read it and must never cache it across events.
        self.now = float(start)
        # Heap entries are (time, priority, seq, event) tuples rather than
        # Event records: tuple comparison short-circuits in C, and seq is
        # unique so the Event field is never compared.
        self._queue: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        self._fired = 0
        self._live = 0
        self._running = False
        #: Set by :meth:`detach`: the run is over and no event can fire.
        self._detached = False
        self._observers: list[Observer] = []
        #: The category the executing action gave itself through
        #: recategorize_current_event; an observer that books by category
        #: reads it after the event and resets it to None.
        self.event_category: Optional[str] = None
        #: Declared timer families by name; see :meth:`declare`.
        self._timers = _Timers()
        #: (family name, key) of each live row a checkpoint load re-armed.
        self._restored: List[Tuple[str, Tuple[Any, ...]]] = []

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
        at, priority, seq = float(when), int(priority), self._seq
        event = Event(at, priority, seq, action, tag)
        self._seq = seq + 1
        heapq.heappush(self._queue, (at, priority, seq, event))
        self._live += 1
        return EventHandle(event, self)

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
        self._check_attached()
        self._discard_dead()
        if not self._queue:
            return False
        self._fire(heapq.heappop(self._queue)[3])
        return True

    def _fire(self, event: Event) -> None:
        """Execute one just-popped live event."""
        self._live -= 1
        event.fired = True
        if event.time < self.now:
            # A discrete-event engine that moves time backwards has a
            # corrupted queue, and silently accepting it would invalidate
            # every time-weighted metric, so this is fatal.
            raise ValueError(
                f"time cannot move backwards: now={self.now}, "
                f"requested={event.time}"
            )
        self.now = event.time
        self._fired += 1
        # Drop the action before it runs: it is spent either way, and a
        # closure over its owner would otherwise keep the owner, the engine
        # and every handle to this event in one reference cycle.
        action = event.action
        event.action = None
        assert action is not None  # only detach() empties a live event
        action()
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
        self._check_attached()
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
        if until is not None and self.now < until:
            self.now = float(until)
        return self._fired - fired_before

    def detach(self) -> None:
        """End the engine's life: drop the action of every event still
        queued, every observer and the declared timer families.

        Actions, observers and the families' bound handlers are the
        engine's only references into the components that drive it, which
        all hold the engine in turn; with them gone, dropping the last
        outside reference frees the whole simulation by refcount.  The
        clock, counters and queued-event inventory stay readable;
        :meth:`run` and :meth:`step` raise, and so does :meth:`arm`.
        """
        for entry in self._queue:
            entry[3].action = None
        self._observers.clear()
        self._timers = _Timers()
        self._detached = True

    def _check_attached(self) -> None:
        if self._detached:
            raise RuntimeError("engine is detached: its run is over")

    # ------------------------------------------------------------------ #
    # Declared timers: every tagged event belongs to a family bound here
    # to its owner for the run.  The table is the engine's one reference
    # to those owners besides queued actions, so :meth:`detach` drops it.

    def declare(
        self,
        timer: Timer,
        handler: Callable[..., Any],
        *,
        requires: Optional[Requires] = None,
        keep: Optional[Callable[..., None]] = None,
    ) -> None:
        """Bind ``timer`` for this run: ``handler(*args)`` fires its events.
        On restore ``keep(handle, *args)`` hands a re-armed event to its
        owner (``LookupError``: no such record), and ``requires(refs)``
        lists the keys (leading arguments, as ids) of the events the
        restored owner needs live.  Declaring a timer again rebinds it."""
        family = self._timers.get(timer.name)
        if family is not None and family.timer is not timer:
            raise ValueError(f"timer family {timer.name!r} is already declared")
        self._timers[timer.name] = _Family(timer, handler, requires, keep)

    def arm(self, timer: Timer, when: float, *args: Any) -> EventHandle:
        """Schedule an event of ``timer``'s declared family at ``when``,
        calling its handler with ``args``; ``ValueError`` if undeclared."""
        family = self._timers.get(timer.name)
        if family is None:
            raise ValueError(f"timer family {timer.name!r} is not declared here")
        handler = family.handler
        # Timer.tag, inlined: this runs for every armed event.
        ids = (args[0].job_id, *args[1:]) if timer.by_job else args
        return self.schedule(
            when,
            lambda: handler(*args),
            priority=timer.priority,
            tag=timer.template % ids,
        )

    def _family_of(self, tag: str) -> Optional[_Family]:
        """The declared family ``tag`` belongs to (names span one or two
        ``:``-separated parts)."""
        head, _, rest = tag.partition(":")
        two = f"{head}:{rest.partition(':')[0]}"
        return self._timers.get(head) or self._timers.get(two)

    # ------------------------------------------------------------------ #
    # Checkpoint / restore
    #
    # Events hold closures, so a snapshot records the *inventory* of live
    # events, ``(time, priority, seq, tag)``.  The engine loads after every
    # component its families serve: each row re-arms with its family's
    # handler under its original ``(time, priority, seq)`` (so same-time
    # tie-breaking, and the rest of the run, stay byte-identical), kept
    # handles go back to their owners, and every required set is checked.

    @property
    def _inventory(self) -> List[List[Any]]:
        """The live events as sorted ``[time, priority, seq, tag]`` rows."""
        return sorted(
            [event.time, event.priority, event.seq, event.tag]
            for _, _, _, event in self._queue
            if not event.cancelled and not event.fired
        )

    @_inventory.setter
    def _inventory(self, rows: List[Tuple[str, Tuple[Any, ...]]]) -> None:
        self._restored = rows

    STATE = Struct(
        ("now", FLOAT),
        ("seq", "_seq", INT),
        ("fired", "_fired", INT),
        ("live", "_inventory", ListOf(_LiveEvent())),
    )

    def _before_load(self) -> None:
        # The snapshot's events replace every construction-time one
        # (arrivals, monitor and fault arms).
        self._queue.clear()
        self._live = 0

    def _rearm(
        self, time: float, priority: int, seq: int, tag: str, path: str, ctx: Any
    ) -> Tuple[str, Tuple[Any, ...]]:
        """Re-arm one live row with its family's handler and hand the
        handle to its owner; returns the family's name and the row's key."""
        family = self._family_of(tag)
        if family is None:
            raise CheckpointError(f"{path}[3]: no timer family declared for {tag!r}")
        timer = family.timer
        args = timer.decode(tag, f"{path}[3]", ctx)
        if priority != timer.priority:
            raise CheckpointError(
                f"{path}[1]: expected {timer.name!r} priority {timer.priority}, "
                f"got {priority}"
            )
        handler = family.handler
        event = Event(time, priority, seq, lambda: handler(*args), tag)
        heapq.heappush(self._queue, (time, priority, seq, event))
        self._live += 1
        if family.keep is not None:
            try:
                family.keep(EventHandle(event, self), *args)
            except LookupError as exc:
                raise CheckpointError(f"{path}[3]: {exc.args[0]}") from None
        return timer.name, tuple(arg.dump(v) for arg, v in zip(timer.args, args))

    def _after_load(self, refs: Refs) -> None:
        rows, self._restored = self._restored, []
        if len(set(rows)) < len(rows):
            raise CheckpointError("state.engine.live: a live event appears twice")
        have = {(name, key[:n]) for name, key in rows for n in range(len(key) + 1)}
        for name, family in self._timers.items():
            for key in family.requires(refs) if family.requires else ():
                if (name, key) not in have:
                    event = name + "".join(f":{part}" for part in key)
                    what = family.timer.missing.format(*key) or (
                        f"its owner without a live {event!r} event"
                    )
                    raise CheckpointError(f"state.engine.live: restore left {what}")

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
            f"Engine(now={self.now:.3f}, pending={self.pending}, "
            f"fired={self._fired})"
        )
