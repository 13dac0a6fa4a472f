"""Fault-tolerant, resumable sweep execution.

Layers, bottom to top:

- :mod:`repro.sweep.config` — :class:`SupervisorConfig`, the single
  tuning surface (retries, timeouts, deterministic backoff);
- :mod:`repro.sweep.ledger` — the crash-safe append-only JSONL journal;
- :mod:`repro.sweep.supervisor` — long-lived worker processes, parked
  between batches, with heartbeat liveness, kill-on-timeout, retry,
  and poison quarantine;
- :mod:`repro.sweep.report` — markdown partial-results reports;
- :mod:`repro.sweep.service` — :func:`run_sweep`, tying cache-aware
  skip, supervised execution, journalling, and reporting together.

Every attempt gets its runner from
:func:`repro.checkpoint.checkpointed_runner`, so a supervised, retried
or resumed cell is built exactly as ``spec.execute()`` builds it.
:class:`~repro.parallel.SimPool` with ``jobs > 1`` hands every batch to
:func:`run_supervised`.

``repro.parallel`` deliberately does not import this package at module
scope (only lazily, from inside :class:`~repro.parallel.SimPool`), so
the import direction stays ``sweep -> parallel``; the worker-count rule
lives there (:func:`repro.parallel.clamp_jobs`,
:data:`repro.parallel.FORCE_SPAWN_ENV`).
"""

from repro.sweep.config import SupervisorConfig
from repro.sweep.ledger import (
    ALL_STATUSES,
    STATUS_CACHED,
    STATUS_FAILED,
    STATUS_INTERRUPTED,
    STATUS_OK,
    STATUS_PENDING,
    STATUS_QUARANTINED,
    STATUS_RUNNING,
    LedgerEntry,
    LedgerError,
    LedgerState,
    SweepLedger,
)
from repro.sweep.supervisor import (
    OUTCOME_OK,
    OUTCOME_QUARANTINED,
    RunOutcome,
    SupervisorEvent,
    SupervisorInterrupted,
    cell_checkpoint_dir,
    run_supervised,
    stop_idle_workers,
)
from repro.sweep.report import render_sweep_report
from repro.sweep.service import (
    CHECKPOINTS_DIR_NAME,
    LEDGER_NAME,
    MANIFEST_NAME,
    REPORT_NAME,
    CellOutcome,
    SweepInterrupted,
    SweepResult,
    run_sweep,
)

__all__ = [
    "ALL_STATUSES",
    "STATUS_CACHED",
    "STATUS_FAILED",
    "STATUS_INTERRUPTED",
    "STATUS_OK",
    "STATUS_PENDING",
    "STATUS_QUARANTINED",
    "STATUS_RUNNING",
    "OUTCOME_OK",
    "OUTCOME_QUARANTINED",
    "CHECKPOINTS_DIR_NAME",
    "LEDGER_NAME",
    "MANIFEST_NAME",
    "REPORT_NAME",
    "CellOutcome",
    "LedgerEntry",
    "LedgerError",
    "LedgerState",
    "RunOutcome",
    "SupervisorConfig",
    "SupervisorEvent",
    "SupervisorInterrupted",
    "SweepInterrupted",
    "SweepLedger",
    "SweepResult",
    "cell_checkpoint_dir",
    "render_sweep_report",
    "run_supervised",
    "run_sweep",
    "stop_idle_workers",
]
