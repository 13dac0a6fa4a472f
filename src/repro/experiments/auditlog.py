"""Structured audit log of scheduling activity.

Sec. V-A step 5: "When J completes, its resource usage, scheduling
information, and owner information are recorded in a log for future use."
The :class:`AuditLog` captures that — and every other lifecycle event — as
structured records that can be asserted on in tests, written to JSONL for
offline analysis, or replayed to debug a scheduling decision.

Attach one to a runner::

    log = AuditLog()
    runner = SimulationRunner(cluster, scheduler, trace, audit=log)
    ...
    log.save("audit.jsonl")
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union


@dataclass(frozen=True)
class AuditRecord:
    """One scheduling event."""

    time: float
    event: str  # submitted | started | resized | throttled | halved |
    #             preempted | failed | straggler | finished
    job_id: str
    tenant_id: int
    kind: str  # "gpu" | "cpu"
    detail: Dict[str, object] = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(
            {
                "time": self.time,
                "event": self.event,
                "job_id": self.job_id,
                "tenant_id": self.tenant_id,
                "kind": self.kind,
                **self.detail,
            },
            sort_keys=True,
        )


class AuditLog:
    """An append-only, queryable log of lifecycle events."""

    #: Events the log understands; anything else is a programming error.
    KNOWN_EVENTS = frozenset(
        {
            "submitted",
            "started",
            "resized",
            "throttled",
            "halved",
            "preempted",
            "failed",
            "straggler",
            "finished",
        }
    )

    def __init__(self) -> None:
        self._records: List[AuditRecord] = []

    def record(
        self,
        time: float,
        event: str,
        job_id: str,
        tenant_id: int,
        kind: str,
        **detail: object,
    ) -> None:
        if event not in self.KNOWN_EVENTS:
            raise ValueError(f"unknown audit event: {event!r}")
        self._records.append(
            AuditRecord(
                time=time,
                event=event,
                job_id=job_id,
                tenant_id=tenant_id,
                kind=kind,
                detail=dict(detail),
            )
        )

    # ------------------------------------------------------------------ #
    # Queries

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[AuditRecord]:
        return iter(self._records)

    def of_job(self, job_id: str) -> List[AuditRecord]:
        return [r for r in self._records if r.job_id == job_id]

    def of_event(self, event: str) -> List[AuditRecord]:
        if event not in self.KNOWN_EVENTS:
            raise ValueError(f"unknown audit event: {event!r}")
        return [r for r in self._records if r.event == event]

    def timeline(self, job_id: str) -> List[str]:
        """The ordered event names of one job — handy in assertions."""
        return [r.event for r in self.of_job(job_id)]

    def last(self, job_id: str) -> Optional[AuditRecord]:
        history = self.of_job(job_id)
        return history[-1] if history else None

    # ------------------------------------------------------------------ #
    # Persistence

    def save(self, path: Union[str, Path]) -> None:
        path = Path(path)
        with path.open("w", encoding="utf-8") as handle:
            for record in self._records:
                handle.write(record.to_json() + "\n")

    @classmethod
    def load(cls, path: Union[str, Path]) -> "AuditLog":
        log = cls()
        with Path(path).open("r", encoding="utf-8") as handle:
            for line in handle:
                if not line.strip():
                    continue
                payload = json.loads(line)
                log.record(
                    payload.pop("time"),
                    payload.pop("event"),
                    payload.pop("job_id"),
                    payload.pop("tenant_id"),
                    payload.pop("kind"),
                    **payload,
                )
        return log
