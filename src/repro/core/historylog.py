"""The backend job-history log (Sec. V-A step 5).

When a job completes, "its resource usage, scheduling information, and
owner information are recorded in a log for future use".  The adaptive CPU
allocator reads this log to pick N_start: "a user tends to submit similar
training jobs", so the tuned core counts of the owner's past jobs in the
same category are the best predictor for the next one.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Optional, Tuple

from repro.sim.state import INT, JOB_ID, STR, Items, ListOf, Record, Refs, Stateful
from repro.sim.state import Struct


@dataclass(frozen=True)
class HistoryEntry:
    """One completed training job's outcome."""

    job_id: str
    model_name: str
    category: str
    tuned_cores: int


_ENTRY = Record(
    HistoryEntry, job_id=JOB_ID, model_name=STR, category=STR, tuned_cores=INT
)


class TenantHistory(Stateful):
    """Per-tenant, per-category ring buffers of tuned core counts."""

    def __init__(self, window: int = 20) -> None:
        if window < 1:
            raise ValueError(f"history window must be positive: {window}")
        self._window = window
        self._entries: Dict[Tuple[int, str], Deque[HistoryEntry]] = {}

    def record(
        self,
        tenant_id: int,
        job_id: str,
        model_name: str,
        category: str,
        tuned_cores: int,
    ) -> None:
        if tuned_cores < 1:
            raise ValueError(f"{job_id}: tuned cores must be positive")
        key = (tenant_id, category)
        bucket = self._entries.setdefault(key, deque(maxlen=self._window))
        bucket.append(
            HistoryEntry(
                job_id=job_id,
                model_name=model_name,
                category=category,
                tuned_cores=tuned_cores,
            )
        )

    def best_cores(self, tenant_id: int, category: str) -> Optional[int]:
        """The paper's rule: "we choose the largest core number" among the
        owner's recent same-category jobs.  None with no history."""
        bucket = self._entries.get((tenant_id, category))
        if not bucket:
            return None
        return max(entry.tuned_cores for entry in bucket)

    def best_cores_any_category(self, tenant_id: int) -> Optional[int]:
        """Worst-case fallback (Sec. V-B1): the owner gave no category, so
        use their history across all categories."""
        candidates = [
            max(entry.tuned_cores for entry in bucket)
            for (owner, _), bucket in self._entries.items()
            if owner == tenant_id and bucket
        ]
        if not candidates:
            return None
        return max(candidates)

    # ------------------------------------------------------------------ #
    # Checkpoint / restore

    STATE = Struct((None, "_entries", Items((INT, STR), ListOf(_ENTRY))))

    def _after_load(self, refs: Refs) -> None:
        self._entries = {
            key: deque(entries, maxlen=self._window)
            for key, entries in self._entries.items()
        }
