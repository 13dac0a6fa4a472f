"""The feedback core-tuning state machine (Sec. V-B2).

Starting from N_start, the allocator "tries both larger and smaller core
number" in profiling steps, each step measuring GPU utilization for one
candidate allocation:

1. measure the start point (the baseline);
2. try one core fewer — keep reducing while utilization stays within
   ``epsilon`` of the best seen (this is CODA's *slimming*: cores that
   buy no utilization are returned to the cluster, which also walks an
   over-provisioned N_start back down Fig. 3's flat post-optimum
   plateau); when reducing costs real utilization,
3. try one core more — if utilization improves by more than ``epsilon``,
   keep increasing until it stops improving;
4. settle on the best observed allocation (fewest cores on ties).

The down-walk compares against a drift-free reference (the maximum
utilization seen), so twenty sub-epsilon steps cannot accumulate into a
real regression.  Below the knee every removed core costs well over
``epsilon`` (Fig. 3's steep left side), so a well-started search still
takes the 3-4 profiling steps of Table II.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.sim.state import FLOAT, INT, Choice, ListOf, Nullable, Row, Stateful, Struct

#: Minimum utilization gain that counts as an improvement.
DEFAULT_EPSILON = 0.01


class _Phase(enum.Enum):
    BASELINE = "baseline"
    TRYING_FEWER = "trying_fewer"
    TRYING_MORE = "trying_more"
    DONE = "done"


@dataclass
class TuningSession(Stateful):
    """One job's core-number search.

    Drive it by alternating: take ``next_cores`` (resize the job, run a
    profiling step), then call :meth:`record` with the measured
    utilization; ``record`` returns the next candidate or ``None`` when
    the search settled.  ``best_cores`` then holds the answer.
    """

    n_start: int
    min_cores: int = 1
    max_cores: int = 28
    epsilon: float = DEFAULT_EPSILON

    _phase: _Phase = field(default=_Phase.BASELINE, init=False)
    _measurements: List[Tuple[int, float]] = field(default_factory=list, init=False)
    _best_cores: Optional[int] = field(default=None, init=False)
    _best_util: float = field(default=-1.0, init=False)
    _pending_cores: Optional[int] = field(default=None, init=False)

    def __post_init__(self) -> None:
        if not self.min_cores <= self.n_start <= self.max_cores:
            raise ValueError(
                f"N_start {self.n_start} outside [{self.min_cores}, "
                f"{self.max_cores}]"
            )
        if self.epsilon < 0:
            raise ValueError(f"negative epsilon: {self.epsilon}")
        self._pending_cores = self.n_start

    # ------------------------------------------------------------------ #
    # Introspection

    @property
    def done(self) -> bool:
        return self._phase is _Phase.DONE

    @property
    def next_cores(self) -> Optional[int]:
        """The allocation to profile next, or None when done."""
        return self._pending_cores

    @property
    def best_cores(self) -> int:
        if self._best_cores is None:
            return self.n_start
        return self._best_cores

    @property
    def steps_taken(self) -> int:
        """Profiling steps completed so far (Table II's first column)."""
        return len(self._measurements)

    @property
    def measurements(self) -> List[Tuple[int, float]]:
        return list(self._measurements)

    # ------------------------------------------------------------------ #
    # Driving

    def record(self, cores: int, utilization: float) -> Optional[int]:
        """Feed the utilization measured at ``cores``; get the next probe.

        Returns ``None`` once the search has settled (``done`` is then
        True and ``best_cores`` holds the result).
        """
        if self.done:
            raise RuntimeError("tuning session already settled")
        if cores != self._pending_cores:
            raise ValueError(
                f"measured {cores} cores but session expected "
                f"{self._pending_cores}"
            )
        if not 0.0 <= utilization <= 1.0:
            raise ValueError(f"utilization out of [0, 1]: {utilization}")
        self._measurements.append((cores, utilization))
        improved = utilization > self._best_util + self.epsilon
        harmless = utilization >= self._best_util - self.epsilon
        if self._best_cores is None or improved:
            self._best_cores, self._best_util = cores, utilization
        elif harmless and cores < self._best_cores:
            # Slimming: same utilization for fewer cores is a better
            # allocation.  The reference utilization keeps the *maximum*
            # seen so sub-epsilon steps cannot drift downwards.
            self._best_cores = cores
            self._best_util = max(self._best_util, utilization)

        if self._phase is _Phase.BASELINE:
            return self._after_baseline()
        if self._phase is _Phase.TRYING_FEWER:
            return self._after_fewer(improved, harmless, cores)
        if self._phase is _Phase.TRYING_MORE:
            return self._after_more(improved, cores)
        raise AssertionError(f"unreachable phase {self._phase}")

    def abort(self) -> None:
        """Settle immediately on the best seen (e.g., resize impossible)."""
        self._phase = _Phase.DONE
        self._pending_cores = None

    # ------------------------------------------------------------------ #
    # Checkpoint / restore

    STATE = Struct(
        ("n_start", INT),
        ("min_cores", INT),
        ("max_cores", INT),
        ("epsilon", FLOAT),
        ("phase", "_phase", Choice(_Phase)),
        ("measurements", "_measurements", ListOf(Row(INT, FLOAT))),
        ("best_cores", "_best_cores", Nullable(INT)),
        ("best_util", "_best_util", FLOAT),
        ("pending_cores", "_pending_cores", Nullable(INT)),
    )

    # ------------------------------------------------------------------ #
    # Phase transitions

    def _after_baseline(self) -> Optional[int]:
        if self.n_start - 1 >= self.min_cores:
            self._phase = _Phase.TRYING_FEWER
            return self._probe(self.n_start - 1)
        if self.n_start + 1 <= self.max_cores:
            self._phase = _Phase.TRYING_MORE
            return self._probe(self.n_start + 1)
        return self._settle()

    def _after_fewer(
        self, improved: bool, harmless: bool, cores: int
    ) -> Optional[int]:
        if (improved or harmless) and cores - 1 >= self.min_cores:
            return self._probe(cores - 1)
        if improved or harmless:
            return self._settle()  # hit the floor while still slimming
        if cores == self.n_start - 1 and self.n_start + 1 <= self.max_cores:
            # Fewer cost real utilization on the first try; probe the
            # other direction (the paper's step 2).
            self._phase = _Phase.TRYING_MORE
            return self._probe(self.n_start + 1)
        return self._settle()

    def _after_more(self, improved: bool, cores: int) -> Optional[int]:
        if improved and cores + 1 <= self.max_cores:
            return self._probe(cores + 1)
        return self._settle()

    def _probe(self, cores: int) -> int:
        self._pending_cores = cores
        return cores

    def _settle(self) -> None:
        self._phase = _Phase.DONE
        self._pending_cores = None
        return None
