"""Per-category wall-clock time shares for ``repro-sim run --profile``.

:class:`Profiler` is an engine observer.  After each fired event it books
the host time since its previous call, and one event, under the event's
*category*: the tag's prefix (``"gpu-done:j17"`` -> ``"gpu-done"``), or the
category the action chose with
:meth:`~repro.sim.engine.Engine.recategorize_current_event` (a skipped
scheduling pass books as ``schedule-skip``, a stale completion timer as
``completion-stale``).  The interval covers the action, the event loop's
pop, and any observer registered before the profiler.

The profiler reads the *host* clock — that is the whole point — so it is
the one simulator module exempt from the codalint CL001 wall-clock rule.
Like every observer it fires no events and never feeds back into the
simulation: a profiled run is byte-identical to an unprofiled one.  For a
split of host time by simulator layer rather than by event, use the
repository benchmark (``perfbench/run.py --trace 1``).

Example (doctest reads counters only, so it is deterministic)::

    >>> from repro.sim.engine import Engine
    >>> engine = Engine()
    >>> profiler = Profiler()
    >>> profiler.attach(engine)
    >>> _ = engine.schedule(1.0, lambda: None, tag="arrival:j1")
    >>> _ = engine.schedule(2.0, lambda: None, tag="arrival:j2")
    >>> _ = engine.schedule(3.0, lambda: engine.recategorize_current_event("skip"))
    >>> engine.run()
    3
    >>> profiler.counters
    {'arrival': 2, 'skip': 1}
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from repro.sim.engine import Engine
from repro.sim.events import Event

#: The host clock, bound once at import: the observer reads it after every
#: event, and binding the function object saves an attribute lookup.
perf_counter = time.perf_counter


class Profiler:
    """Accumulates host seconds and event counts per event category."""

    def __init__(self) -> None:
        self.timers: Dict[str, float] = {}
        self.counters: Dict[str, int] = {}
        self._engine: Optional[Engine] = None
        self._last = 0.0

    # ------------------------------------------------------------------ #
    # Recording

    def attach(self, engine: Engine) -> None:
        """Register as a post-event observer of ``engine``; the first
        event's interval starts now."""
        if self._engine is not None:
            raise RuntimeError("profiler already attached")
        self._engine = engine
        engine.event_category = None
        engine.add_observer(self._on_event)
        self._last = perf_counter()  # codalint: disable=CL001

    def _on_event(self, event: Event) -> None:
        now = perf_counter()  # codalint: disable=CL001
        engine = self._engine
        assert engine is not None
        category = engine.event_category
        if category is None:
            category = event.tag.partition(":")[0] or "untagged"
        else:
            engine.event_category = None
        self.add_time(category, now - self._last)
        self.count(category)
        self._last = now

    def add_time(self, name: str, seconds: float) -> None:
        self.timers[name] = self.timers.get(name, 0.0) + seconds

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    # ------------------------------------------------------------------ #
    # Reading

    def total_timed_s(self) -> float:
        return sum(self.timers.values())

    def time_shares(
        self, total_s: Optional[float] = None
    ) -> List[Tuple[str, float, float]]:
        """``(name, seconds, share)`` rows, largest first.

        ``total_s`` (e.g. the run's full wall time) is the denominator;
        when omitted, the sum of all timed categories is used.  With an
        explicit total the shares need not add to 1.
        """
        denominator = total_s if total_s is not None else self.total_timed_s()
        rows = [
            (name, seconds, seconds / denominator if denominator > 0 else 0.0)
            for name, seconds in self.timers.items()
        ]
        rows.sort(key=lambda row: (-row[1], row[0]))
        return rows

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """JSON-ready copy of every timer and counter."""
        return {
            "timers_s": dict(self.timers),
            "counters": {name: float(n) for name, n in self.counters.items()},
        }
