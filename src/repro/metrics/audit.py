"""Invariant-audit accounting.

One :class:`AuditStats` per run, owned by the metrics collector exactly
like :class:`~repro.metrics.faults.FaultStats`.  The runtime invariant
auditor (:mod:`repro.analysis.invariants`) pushes check counts and any
violations into it; reports read them back out.  Everything stays zero on
unaudited runs, so existing reports are unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.sim.state import FLOAT, INT, STR, ListOf, Record, Stateful, Struct


@dataclass(frozen=True)
class InvariantViolation:
    """One conservation/ordering law broken at one simulated instant."""

    time: float
    code: str
    message: str

    def render(self) -> str:
        return f"[t={self.time:.3f}] {self.code}: {self.message}"


@dataclass
class AuditStats(Stateful):
    """What the runtime invariant auditor observed over one run."""

    #: Audit sweeps executed (each sweep runs every invariant check).
    checks_run: int = 0
    #: Individual invariant evaluations across all sweeps.
    assertions_evaluated: int = 0
    violations: List[InvariantViolation] = field(default_factory=list)

    STATE = Struct(
        ("checks_run", INT),
        ("assertions_evaluated", INT),
        (
            "violations",
            ListOf(Record(InvariantViolation, time=FLOAT, code=STR, message=STR)),
        ),
    )

    def record(self, time: float, code: str, message: str) -> InvariantViolation:
        violation = InvariantViolation(time=time, code=code, message=message)
        self.violations.append(violation)
        return violation

    @property
    def violation_count(self) -> int:
        return len(self.violations)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> Tuple[int, int, int]:
        """(sweeps, assertions, violations) — the report's one-liner."""
        return (self.checks_run, self.assertions_evaluated, self.violation_count)
