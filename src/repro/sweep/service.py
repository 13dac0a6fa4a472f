"""The resumable sweep service.

:func:`run_sweep` is the orchestration layer the CLI's ``sweep``
subcommand (and any thousand-run grid script) drives:

1. every :class:`~repro.parallel.RunSpec` is fingerprinted to its
   content-addressed cache key;
2. cells whose result is already in the :class:`~repro.parallel.ResultCache`
   are **skipped** (journalled as ``cached``) — this is what makes
   ``--resume`` a no-op on a fully-warm sweep, and it composes with the
   ledger: a ``running``/``failed`` tail entry from a crashed invocation
   simply re-runs;
3. the remainder executes under the worker supervisor
   (:func:`repro.sweep.supervisor.run_supervised`), with every
   transition journalled to the crash-safe ledger as it happens; with
   ``SupervisorConfig.checkpoint_every_events`` set, each cell
   checkpoints periodically under ``<out>/checkpoints/<label>/`` and a
   retry resumes from the newest snapshot (journalled as a ``running``
   entry with a ``restored_from=...`` detail);
4. a markdown report — per-cell status, retries, failure excerpts,
   cache counters — is written even when cells were quarantined or
   execution degraded to serial: a partial sweep always leaves a usable
   record.  A SIGINT/SIGTERM gets the same treatment: unfinished cells
   are journalled ``interrupted``, settled results are already in the
   cache, the report is flushed, and :class:`SweepInterrupted` carries
   the partial result out (the CLI exits 130).

Degradation: a single-CPU host (or an explicit ``jobs=1``) runs
in-process serial with a logged reason instead of paying spawn overhead
(:func:`repro.parallel.clamp_jobs`, the rule ``compare --jobs`` and
``REPRO_JOBS`` share); repeated worker spawn failures degrade mid-batch
the same way.  Set ``REPRO_SWEEP_FORCE_SPAWN=1``
(:data:`repro.parallel.FORCE_SPAWN_ENV`) to keep the process pool even
on one CPU (CI chaos tests need the process boundary to inject crashes
into).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Union

from repro.experiments.runner import RunResult
from repro.metrics.serialize import run_result_from_dict
from repro.parallel.cache import ResultCache
from repro.parallel.pool import clamp_jobs
from repro.parallel.spec import RunSpec
from repro.sweep.config import SupervisorConfig
from repro.sweep.ledger import (
    STATUS_CACHED,
    STATUS_FAILED,
    STATUS_INTERRUPTED,
    STATUS_OK,
    STATUS_PENDING,
    STATUS_QUARANTINED,
    STATUS_RUNNING,
    SweepLedger,
)
from repro.sweep.report import render_sweep_report
from repro.sweep.supervisor import (
    OUTCOME_OK,
    RunOutcome,
    SupervisorEvent,
    SupervisorInterrupted,
    run_supervised,
)

#: Files a sweep directory contains.
LEDGER_NAME = "ledger.jsonl"
REPORT_NAME = "report.md"
MANIFEST_NAME = "manifest.json"
#: Per-cell checkpoint directories live under this subdirectory when
#: checkpointing is enabled and no explicit directory was configured.
CHECKPOINTS_DIR_NAME = "checkpoints"

Logger = Callable[[str], None]


def _silent(message: str) -> None:
    return None


class SweepInterrupted(RuntimeError):
    """The sweep stopped on SIGINT/SIGTERM with its partial state flushed.

    By the time this is raised the ledger has journalled ``interrupted``
    for every unfinished cell, every settled result has reached the
    cache, and the markdown report covers the partial grid — so
    ``--resume`` picks up exactly where the interrupt landed.
    ``result`` is the partial :class:`SweepResult`.
    """

    def __init__(self, result: "SweepResult") -> None:
        super().__init__("sweep interrupted")
        self.result = result


@dataclass
class CellOutcome:
    """Final state of one grid cell after a sweep invocation."""

    label: str
    key: str
    #: ``ok`` (freshly executed), ``cached`` (reused), ``quarantined``,
    #: or ``interrupted`` (a signal stopped the sweep first).
    status: str
    attempts: int = 0
    failures: List[str] = field(default_factory=list)
    result: Optional[RunResult] = None


@dataclass
class SweepResult:
    """What one :func:`run_sweep` invocation did, cell by cell."""

    outcomes: List[CellOutcome]
    #: Fresh simulations executed by this invocation.
    executed: int
    #: Cells reused from the ledger + result cache.
    reused: int
    quarantined: int
    retries: int
    degraded_reason: Optional[str]
    report_path: Path
    #: Cells left unfinished by a SIGINT/SIGTERM (see
    #: :class:`SweepInterrupted`); they re-run on resume.
    interrupted: int = 0

    @property
    def ok(self) -> bool:
        return self.quarantined == 0 and self.interrupted == 0


def run_sweep(
    specs: Sequence[RunSpec],
    *,
    out_dir: Union[str, Path],
    jobs: int = 1,
    supervisor: Optional[SupervisorConfig] = None,
    cache: Optional[ResultCache] = None,
    resume: bool = False,
    title: str = "Sweep report",
    log: Logger = _silent,
) -> SweepResult:
    """Run (or resume) a sweep grid; see the module docstring.

    ``cache=None`` disables result reuse entirely — the ledger still
    journals progress, but a resume must re-execute every cell because
    there is nowhere to reload results from (``log`` says so).
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1: {jobs}")
    config = supervisor if supervisor is not None else SupervisorConfig()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if (
        config.checkpoint_every_events is not None
        and config.checkpoint_dir is None
    ):
        # Checkpoints belong next to the ledger they make resumable.
        config = replace(
            config, checkpoint_dir=str(out / CHECKPOINTS_DIR_NAME)
        )
    ledger_path = out / LEDGER_NAME
    # Read once: a resume reports on it, and new lines continue its seq.
    state = SweepLedger.replay(ledger_path)
    if resume:
        if state.dropped_tail:
            log(
                f"ledger: dropped {state.dropped_tail} truncated trailing "
                "line(s) left by an interrupted invocation"
            )
        if cache is None and state.entries:
            log(
                "ledger: caching is disabled, so completed cells cannot "
                "be reloaded and will re-run"
            )

    jobs_used = clamp_jobs(jobs)
    degraded_reason: Optional[str] = None
    if jobs_used != jobs:
        degraded_reason = (
            f"host has {os.cpu_count() or 1} CPU(s); running in-process "
            f"serial instead of {jobs} worker processes"
        )
        log(f"degraded: {degraded_reason}")

    keys = [
        cache.key_for(spec) if cache is not None else spec.canonical_json()
        for spec in specs
    ]
    labels = [spec.label() for spec in specs]
    if len(set(keys)) != len(keys):
        raise ValueError("sweep grid contains duplicate run specs")

    outcomes: List[Optional[CellOutcome]] = [None] * len(specs)
    pending_indices: List[int] = []
    was_interrupted = False
    with SweepLedger(ledger_path, next_seq=state.next_seq) as ledger:
        for index, spec in enumerate(specs):
            hit = cache.load(keys[index]) if cache is not None else None
            if hit is not None:
                ledger.append(keys[index], labels[index], STATUS_CACHED)
                outcomes[index] = CellOutcome(
                    label=labels[index],
                    key=keys[index],
                    status=STATUS_CACHED,
                    result=hit,
                )
            else:
                ledger.append(keys[index], labels[index], STATUS_PENDING)
                pending_indices.append(index)

        run_outcomes: List[RunOutcome] = []
        if pending_indices:
            log(
                f"executing {len(pending_indices)} of {len(specs)} "
                f"cell(s) with jobs={jobs_used} "
                f"(retries={config.max_retries}, "
                f"timeout={config.run_timeout_s or 'off'})"
            )

            def journal(event: SupervisorEvent) -> None:
                nonlocal degraded_reason
                if event.kind == "degrade":
                    degraded_reason = event.reason
                    log(f"degraded: {event.reason}")
                    return
                index = pending_indices[event.index]
                attempt, reason = event.attempt, event.reason
                # Ledger status, detail and log line of each journalled
                # kind; ``retry`` is not journalled (its ``failure`` is).
                # A ``restored`` line names the snapshot, so the ledger
                # tells the whole recovery story.
                status, detail, message = {
                    "attempt": (STATUS_RUNNING, "", ""),
                    "failure": (
                        STATUS_FAILED,
                        reason,
                        f"attempt {attempt} failed ({reason})",
                    ),
                    "ok": (STATUS_OK, "", ""),
                    "quarantine": (
                        STATUS_QUARANTINED,
                        reason,
                        f"quarantined after {attempt} attempt(s)",
                    ),
                    "restored": (
                        STATUS_RUNNING,
                        f"restored_from={reason}",
                        f"attempt {attempt} resumed from checkpoint {reason}",
                    ),
                    "checkpoint-fallback": (STATUS_RUNNING, reason, reason),
                }.get(event.kind, ("", "", ""))
                if not status:
                    return
                # Persist the result *before* journalling ``ok``: a batch
                # can die hours after this cell finished, and an ``ok``
                # line whose result never reached the cache would make
                # the resume re-run settled work.
                if cache is not None and event.payload is not None:
                    cache.store(keys[index], event.payload)
                ledger.append(
                    keys[index],
                    labels[index],
                    status,
                    attempt=attempt,
                    detail=detail,
                )
                if message:
                    log(f"{labels[index]}: {message}")

            try:
                run_outcomes = run_supervised(
                    [specs[index] for index in pending_indices],
                    jobs=jobs_used,
                    config=config,
                    on_event=journal,
                )
            except SupervisorInterrupted as stop:
                was_interrupted = True
                run_outcomes = stop.outcomes
                log(
                    "interrupted: flushing partial results, ledger, "
                    "and report"
                )
            for sub_index, run_outcome in enumerate(run_outcomes):
                index = pending_indices[sub_index]
                if run_outcome.status == OUTCOME_OK:
                    status = STATUS_OK
                elif run_outcome.status:
                    status = STATUS_QUARANTINED
                else:
                    # Unsettled when the signal landed: journal it so
                    # the ledger's tail explains the missing result, and
                    # mark the run outcome for the report table.
                    status = STATUS_INTERRUPTED
                    run_outcome.status = STATUS_INTERRUPTED
                    ledger.append(
                        keys[index],
                        labels[index],
                        STATUS_INTERRUPTED,
                        attempt=run_outcome.attempts,
                        detail="sweep interrupted by signal",
                    )
                cell = CellOutcome(
                    label=labels[index],
                    key=keys[index],
                    status=status,
                    attempts=run_outcome.attempts,
                    failures=list(run_outcome.failures),
                )
                if run_outcome.payload is not None:
                    cell.result = run_result_from_dict(run_outcome.payload)
                outcomes[index] = cell

    final = [outcome for outcome in outcomes if outcome is not None]
    executed = sum(1 for cell in final if cell.status == STATUS_OK)
    reused = sum(1 for cell in final if cell.status == STATUS_CACHED)
    quarantined = sum(
        1 for cell in final if cell.status == STATUS_QUARANTINED
    )
    interrupted = sum(
        1 for cell in final if cell.status == STATUS_INTERRUPTED
    )
    retries = sum(max(0, cell.attempts - 1) for cell in final)
    report_path = out / REPORT_NAME
    report_path.write_text(
        render_sweep_report(
            run_outcomes,
            title=title,
            executed=executed,
            reused_labels=[
                cell.label for cell in final if cell.status == STATUS_CACHED
            ],
            degraded_reason=degraded_reason,
            cache_stats=cache.stats if cache is not None else None,
        ),
        encoding="utf-8",
    )
    result = SweepResult(
        outcomes=final,
        executed=executed,
        reused=reused,
        quarantined=quarantined,
        retries=retries,
        degraded_reason=degraded_reason,
        report_path=report_path,
        interrupted=interrupted,
    )
    if was_interrupted:
        raise SweepInterrupted(result)
    return result
