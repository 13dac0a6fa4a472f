"""Whole-simulation snapshot, restore, and the periodic writer.

A snapshot composes every stateful layer's ``snapshot()``, each derived
from the layer's declared fields (:mod:`repro.sim.state`): engine (clock,
counters, live-event inventory), cluster (nodes, GPUs, monitors, health
tracker), scheduler (queues, ledgers, CODA's allocator and eliminator),
fault injector (RNG streams), the runner core (running-job
records, pass flags), and the metrics collector.  Loading checks every
value against its declaration, and every job and node id against the
regenerated trace and cluster, and names the JSON path of the first
value that does not fit.

Restore deliberately never pickles the event heap.  Events hold closures,
so :func:`restore_run` rebuilds the simulation from its
:class:`~repro.parallel.spec.RunSpec` (trace and cluster regenerate
deterministically from config), loads every component, and loads the
engine last: each live row's tag decodes through the timer family its
owner declared (:class:`repro.sim.engine.Timer`), re-arms under the event's
original ``(time, priority, seq)`` with the family's handler, and each
family checks that the restored owner finds every event it requires (a
running job its completion, a tuning session its profiling step, ...).
A tag of no declared family, or a missing required event, fails loudly
instead of resuming a run that would silently diverge.

:func:`checkpointed_runner` is the only code that builds or restores a
spec's runner and attaches the writer: ``repro-sim run --checkpoint-dir``
and every supervised sweep attempt use it.  Both ways end in
``RunSpec.build_runner``, the construction ``spec.execute()`` uses.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.sim.state import CheckpointError
from repro.checkpoint.store import (
    checkpoint_path,
    read_checkpoint,
    write_checkpoint,
)
from repro.experiments.runner import SimulationRunner
from repro.sim.events import Event
from repro.sim.state import Refs, Stateful, load

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.parallel.spec import RunSpec


def spec_digest(spec: "RunSpec") -> str:
    """Content hash of the spec's resolved fingerprint.

    Stamped into every snapshot so :func:`restore_run` can refuse a
    checkpoint taken under a different trace seed, scheduler, or cluster
    shape *before* loading it — id checks alone cannot tell two seeds of
    the same scenario apart (their job ids coincide).
    """
    return hashlib.sha256(spec.canonical_json().encode("utf-8")).hexdigest()


def _components(runner: SimulationRunner) -> List[Tuple[str, Stateful]]:
    """A run's components by snapshot key, in load order: the engine last,
    so its live rows re-arm against every restored owner."""
    parts: List[Tuple[str, Optional[Stateful]]] = [
        ("cluster", runner.cluster), ("scheduler", runner.scheduler),
        ("faults", runner.fault_injector), ("runner", runner),
        ("collector", runner.collector), ("engine", runner.engine),
    ]
    return [(key, part) for key, part in parts if part is not None]


def snapshot_run(
    runner: SimulationRunner, spec: Optional["RunSpec"] = None
) -> Dict[str, Any]:
    """One serializable snapshot of a mid-flight simulation.

    Pass the run's ``spec`` so the snapshot carries its identity digest;
    restores then verify the checkpoint belongs to the spec being
    resumed."""
    state = {key: part.snapshot() for key, part in _components(runner)}
    if spec is not None:
        state["spec"] = spec_digest(spec)
    return state


def restore_run(spec: "RunSpec", state: Dict[str, Any]) -> SimulationRunner:
    """Rebuild a mid-flight simulation of ``spec`` from snapshot ``state``.

    Raises:
        CheckpointError: the state does not restore cleanly against this
            spec: a different spec's digest, a component or a value that
            does not match its declaration or refers to a job or node
            this run does not have (named by its JSON path), a live event
            of no declared timer family, or a restored owner missing a
            live event its family requires.
    """
    stored_digest = state.get("spec")
    if stored_digest is not None and stored_digest != spec_digest(spec):
        raise CheckpointError(
            f"checkpoint does not restore against spec {spec.label()!r}: "
            f"it was taken under a different spec (fingerprint "
            f"{stored_digest[:12]}..., expected {spec_digest(spec)[:12]}...)"
        )
    trace = spec.resolved_scenario().build_trace()
    runner = spec.build_runner(trace)
    refs = Refs({job.job_id: job for job in trace.jobs}, len(runner.cluster.nodes))
    parts = _components(runner)
    extra = sorted(state.keys() - dict(parts).keys() - {"spec"})
    if extra:
        raise CheckpointError(f"state.{extra[0]}: not a component of this run")
    for key, part in parts:
        if key not in state:
            raise CheckpointError(f"state.{key}: missing")
        load(part, state[key], f"state.{key}", refs)
    if runner.auditor is not None:
        runner.auditor.resume()
    return runner


class CheckpointWriter:
    """Engine observer that writes a checkpoint every N fired events.

    Registered via ``engine.add_observer`` only when checkpointing is on,
    so a run without ``--checkpoint-dir`` executes the exact pre-feature
    event loop.  Snapshots are taken *after* an event's action returns,
    so the stored ``fired`` count includes the event that triggered the
    write, and observers never fire events or advance the clock — a
    checkpointed run stays byte-identical to an unobserved one.
    """

    def __init__(
        self,
        runner: SimulationRunner,
        directory: str,
        every_events: int,
        spec: Optional["RunSpec"] = None,
    ) -> None:
        if every_events < 1:
            raise ValueError(
                f"checkpoint interval must be >= 1 event: {every_events}"
            )
        self._runner = runner
        self._directory = directory
        self._every = every_events
        self._spec = spec
        self.checkpoints_written = 0
        self.last_path: Optional[str] = None

    def __call__(self, event: Event) -> None:
        if self._runner.engine.fired % self._every == 0:
            self.write_now()

    def write_now(self) -> str:
        """Snapshot the run and write it atomically; returns the path."""
        path = checkpoint_path(self._directory, self._runner.engine.fired)
        write_checkpoint(path, snapshot_run(self._runner, self._spec))
        self.checkpoints_written += 1
        self.last_path = path
        return path


def checkpointed_runner(
    spec: "RunSpec",
    *,
    checkpoint_dir: Optional[str] = None,
    checkpoint_every_events: Optional[int] = None,
    restore_from: Optional[str] = None,
) -> SimulationRunner:
    """``spec``'s runner, ready to run, checkpointing and/or resumed.

    ``restore_from`` resumes from that checkpoint file (raising
    :class:`CheckpointError` if it is damaged or does not match the
    spec); otherwise the runner starts from scratch.  With a directory
    and interval, a :class:`CheckpointWriter` rides along.  With
    neither, this is exactly ``spec.build_runner()``.
    """
    if restore_from is not None:
        runner = restore_run(spec, read_checkpoint(restore_from))
    else:
        runner = spec.build_runner()
    if checkpoint_dir is not None and checkpoint_every_events:
        writer = CheckpointWriter(
            runner, checkpoint_dir, checkpoint_every_events, spec=spec
        )
        runner.engine.add_observer(writer)
    return runner
