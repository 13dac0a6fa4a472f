"""Simulation time units.

Time in this library is a float number of **seconds** since the start of the
simulation (the engine's ``now``).  A handful of helpers convert to the human
units that the paper uses (minutes for queueing-time CDFs, hours for
runtimes, days for the week-long utilization trend of Fig. 1).

Example::

    >>> fmt_duration(90.0)
    '1.5min'
"""

from __future__ import annotations

SECOND = 1.0
MINUTE = 60.0
HOUR = 3600.0
DAY = 24 * HOUR
WEEK = 7 * DAY


def fmt_duration(seconds: float) -> str:
    """Render a duration the way the paper quotes them (s / min / h)."""
    if seconds < MINUTE:
        return f"{seconds:.1f}s"
    if seconds < HOUR:
        return f"{seconds / MINUTE:.1f}min"
    if seconds < DAY:
        return f"{seconds / HOUR:.2f}h"
    return f"{seconds / DAY:.2f}d"
