"""Series primitives.

Two flavours: :class:`SampledSeries` records point-in-time samples (how the
paper's monitoring collects Fig. 1 and Fig. 10), and
:class:`TimeWeightedValue` integrates a step function exactly (used for
resource occupancy where sampling error would be avoidable).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import List, Optional, Tuple


class SampledSeries:
    """(time, value) samples in nondecreasing time order, one ``array``
    column each: times ``'d'``, values ``typecode`` (``'i'`` for a count
    series, so its values stay ints).

    >>> series = SampledSeries("gpu_util")
    >>> series.record(0.0, 0.5)
    >>> series.record(30.0, 0.7)
    >>> series.mean()
    0.6
    >>> series.points
    [(0.0, 0.5), (30.0, 0.7)]
    >>> series.record(10.0, 0.9)
    Traceback (most recent call last):
        ...
    ValueError: series gpu_util: sample at 10.0 before last 30.0

    Series built on a shared ``times`` column (the metrics collector's)
    are written by the column's owner, which appends each value to
    :attr:`value_column` and the time once for all of them.
    """

    __slots__ = ("name", "time_column", "value_column", "_shared")

    def __init__(
        self,
        name: str,
        typecode: str = "d",
        *,
        times: Optional[array[float]] = None,
    ) -> None:
        self.name = name
        self._shared = times is not None
        self.time_column: array[float] = array("d") if times is None else times
        self.value_column: array[float] = array(typecode)

    def record(self, t: float, value: float) -> None:
        if self._shared:
            raise RuntimeError(
                f"series {self.name}: its time column is shared; its owner "
                "records it"
            )
        times = self.time_column
        if times and t < times[-1]:
            raise ValueError(
                f"series {self.name}: sample at {t} before last {times[-1]}"
            )
        self.value_column.append(value)
        times.append(t)

    @property
    def points(self) -> List[Tuple[float, float]]:
        return list(zip(self.time_column, self.value_column))

    def values(self) -> List[float]:
        return self.value_column.tolist()

    def times(self) -> List[float]:
        return self.time_column.tolist()

    def mean(self) -> float:
        if not self.value_column:
            return 0.0
        return sum(self.value_column) / len(self.value_column)

    def __len__(self) -> int:
        return len(self.value_column)


@dataclass
class TimeWeightedValue:
    """Exact integral of a piecewise-constant signal.

    >>> occupancy = TimeWeightedValue("cores")
    >>> occupancy.set(0.0, 4.0)
    >>> occupancy.set(10.0, 0.0)
    >>> occupancy.mean()
    4.0
    >>> occupancy.mean(until=20.0)
    2.0
    """

    name: str
    _current: float = 0.0
    _last_t: Optional[float] = None
    _weighted_sum: float = 0.0
    _elapsed: float = 0.0

    def set(self, t: float, value: float) -> None:
        """The signal takes ``value`` from time ``t`` onwards."""
        if self._last_t is not None:
            if t < self._last_t:
                raise ValueError(
                    f"{self.name}: time moved backwards ({t} < {self._last_t})"
                )
            span = t - self._last_t
            self._weighted_sum += self._current * span
            self._elapsed += span
        self._last_t = t
        self._current = value

    @property
    def current(self) -> float:
        return self._current

    def mean(self, until: Optional[float] = None) -> float:
        """Time-weighted mean, optionally extending the last value to
        ``until``."""
        weighted, elapsed = self._weighted_sum, self._elapsed
        if until is not None and self._last_t is not None:
            if until < self._last_t:
                raise ValueError(f"{self.name}: until precedes last update")
            span = until - self._last_t
            weighted += self._current * span
            elapsed += span
        if elapsed <= 0:
            return self._current
        return weighted / elapsed
