"""The worker supervisor: crash-, hang-, and poison-tolerant fan-out.

:func:`run_supervised` executes a batch of independent
:class:`~repro.parallel.RunSpec` runs over ``min(jobs, len(specs))``
long-lived ``spawn`` workers, each supervised over a duplex pipe:

* a worker pays for spawn and imports once, then serves specs one at a
  time: it receives ``(index, spec)`` and answers with exactly one
  terminal message — ``("ok", payload)`` or ``("error", reason)`` —
  while a daemon thread streams ``("hb", seq)`` heartbeats for as long
  as the spec is in flight;
* workers outlive the call: at batch end idle workers are **parked**,
  and the next batch takes parked workers first and launches only the
  shortfall, so a repeated grid pays spawn and imports once per
  process, not once per batch.  A parked worker is reused only while
  everything a fresh spawn would inherit is unchanged (environment,
  ``sys.path``, working directory, main module, ``sys.argv``, and the
  :class:`SupervisorConfig`); otherwise it is stopped and a fresh one
  launched.  :func:`stop_idle_workers` (also run at interpreter exit)
  stops the parked ones;
* the supervisor keeps at most one spec in flight per worker, so a
  crash loses only that spec, and detects **crashes** (the process
  exits without a terminal message), **overruns** (wall clock past
  ``run_timeout_s`` since dispatch — the worker is killed), and
  **hangs** (no heartbeat within ``heartbeat_timeout_s`` of dispatch or
  of the last beat — ditto).  A killed worker is replaced only while
  work is pending; at batch end busy workers are killed and joined, and
  an interrupted batch stops its idle workers too instead of parking
  them;
* every failure is retried with deterministic exponential backoff +
  seeded jitter, at most ``max_retries`` times; past that the spec is
  **quarantined** and the rest of the grid keeps going;
* repeated worker *spawn* failures (or ``jobs=1``) degrade gracefully to
  in-process serial execution — retries and quarantine still apply, but
  timeouts cannot be enforced without a process boundary;
* with :attr:`SupervisorConfig.checkpoint_dir` set, attempts are
  **checkpoint-aware**: each run periodically snapshots itself (see
  :mod:`repro.checkpoint`), a retry resumes from the cell's newest
  checkpoint instead of replaying from scratch, and a damaged checkpoint
  falls back to a from-scratch attempt rather than sinking the retry.

Results are plain serialized payloads (the exact JSON round trip the
cache uses), so a supervised run is byte-identical to a serial one —
and, because restore is byte-identical, to a checkpointed-and-resumed
one.

Test-only chaos hooks (inert unless the ``REPRO_TEST_*`` environment
variables are set) let the failure paths be exercised end-to-end: see
:func:`_maybe_inject_failure`.
"""

from __future__ import annotations

import atexit
import functools
import gc
import multiprocessing
import multiprocessing.spawn
import os
import signal
import sys
import threading
import time
from dataclasses import dataclass, field
from multiprocessing.connection import Connection
from multiprocessing.connection import wait as connection_wait
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.checkpoint import (
    CheckpointError,
    checkpointed_runner,
    latest_checkpoint,
)
from repro.metrics.serialize import run_result_to_dict
from repro.parallel.spec import RunSpec
from repro.sweep.config import SupervisorConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.runner import SimulationRunner

#: Terminal outcome statuses.
OUTCOME_OK = "ok"
OUTCOME_QUARANTINED = "quarantined"

#: Chaos-injection environment variables (test/CI only; unset = inert).
#: ``REPRO_TEST_CRASH_SPEC`` — comma-separated spec labels whose worker
#: process dies on receiving them, per ``REPRO_TEST_CRASH_MODE`` (``exit`` |
#: ``kill`` | ``stop`` | ``hang`` | ``midrun``); ``midrun`` SIGKILLs the
#: worker *mid-simulation*, after ``REPRO_TEST_CRASH_EVENT`` fired
#: events (the kill lands after that event's checkpoint, if due, is
#: already durable);
#: ``REPRO_TEST_RAISE_SPEC`` — labels whose attempt raises in-process
#: (works on the serial path too); ``REPRO_TEST_CRASH_ONCE_DIR`` — a
#: marker directory making either injection fire once per label instead
#: of every attempt.
CRASH_SPEC_ENV = "REPRO_TEST_CRASH_SPEC"
CRASH_MODE_ENV = "REPRO_TEST_CRASH_MODE"
CRASH_EVENT_ENV = "REPRO_TEST_CRASH_EVENT"
CRASH_ONCE_DIR_ENV = "REPRO_TEST_CRASH_ONCE_DIR"
RAISE_SPEC_ENV = "REPRO_TEST_RAISE_SPEC"

#: Exit code of a chaos-injected worker death.
_CHAOS_EXIT_CODE = 13

#: Grace period when joining a stopped, killed or finished worker.
_REAP_TIMEOUT_S = 5.0

#: Worker message kinds that end a cell.
_TERMINAL_KINDS = ("ok", "error")


def _wall_now() -> float:
    """Wall-clock seconds for supervising real worker processes.

    The supervisor times actual host processes, so the host clock is the
    only correct source here; simulation code keeps reading the engine's
    time (that is what codalint CL001 polices).
    """
    return time.monotonic()  # codalint: disable=CL001


@dataclass
class RunOutcome:
    """Per-spec verdict of a supervised batch, aligned by index."""

    index: int
    label: str
    #: "" while in flight; ``OUTCOME_OK`` or ``OUTCOME_QUARANTINED`` at
    #: the end of the batch.
    status: str = ""
    #: Attempts actually executed (1 on the clean path).
    attempts: int = 0
    #: Serialized result payload (``None`` when quarantined).
    payload: Optional[Dict[str, Any]] = None
    #: One reason per failed attempt, in order.
    failures: List[str] = field(default_factory=list)

    @property
    def retries(self) -> int:
        return max(0, self.attempts - 1)

    @property
    def last_failure(self) -> str:
        return self.failures[-1] if self.failures else ""

    def event(
        self,
        kind: str,
        reason: str = "",
        payload: Optional[Dict[str, Any]] = None,
    ) -> "SupervisorEvent":
        """This spec's ``kind`` transition, stamped with its attempt."""
        return SupervisorEvent(
            kind=kind,
            index=self.index,
            label=self.label,
            attempt=self.attempts,
            reason=reason,
            payload=payload,
        )


@dataclass(frozen=True)
class SupervisorEvent:
    """One supervision transition, streamed to the caller's sink.

    ``kind`` is one of ``attempt`` (a run started), ``ok``, ``failure``,
    ``retry`` (a failure that will be retried), ``quarantine``,
    ``degrade`` (the whole batch fell back to serial; ``index`` is -1),
    ``restored`` (a checkpoint-aware attempt resumed from the checkpoint
    named in ``reason``), or ``checkpoint-fallback`` (the cell's newest
    checkpoint was unusable and the attempt started from scratch;
    ``reason`` says why).
    """

    kind: str
    index: int = -1
    label: str = ""
    attempt: int = 0
    reason: str = ""
    #: On ``ok`` events, the serialized run result.  Streamed so callers
    #: can persist each result the moment it exists — a supervisor batch
    #: can outlive the caller's process by hours, and a result held only
    #: in memory until the batch returns is a result a crash loses.
    payload: Optional[Dict[str, Any]] = None


EventSink = Callable[[SupervisorEvent], None]

#: In-attempt notices (``restored`` / ``checkpoint-fallback``) flow
#: through this callback: over the pipe from a worker, directly to the
#: event sink on the serial path.
Notify = Callable[[str, str], None]


def _no_event(event: SupervisorEvent) -> None:
    return None


class SupervisorInterrupted(Exception):
    """SIGINT/SIGTERM arrived mid-batch.

    Raised by :func:`run_supervised` after in-flight workers are reaped;
    ``outcomes`` holds the partial verdicts — unsettled cells keep an
    empty status, which the sweep service journals as ``interrupted``.
    """

    def __init__(self, outcomes: List[RunOutcome]) -> None:
        super().__init__("supervised batch interrupted")
        self.outcomes = outcomes


def cell_checkpoint_dir(root: str, label: str) -> str:
    """Where one cell keeps its checkpoints under the sweep's root."""
    return os.path.join(root, label.replace(":", "_").replace("/", "_"))


# ---------------------------------------------------------------------- #
# Chaos injection (test-only, env-gated)


def _labels_from_env(name: str) -> List[str]:
    return [
        part.strip()
        for part in os.environ.get(name, "").split(",")
        if part.strip()
    ]


def _chaos_armed(env_name: str, label: str) -> bool:
    """Whether the env-gated injection should fire for ``label`` now.

    With ``REPRO_TEST_CRASH_ONCE_DIR`` set, each label fires once: the
    marker file is created *before* dying, so the retry sails through —
    the transient-crash shape real fleets exhibit.  Without the marker
    directory the injection fires on every attempt (a poison spec).
    """
    if label not in _labels_from_env(env_name):
        return False
    once_dir = os.environ.get(CRASH_ONCE_DIR_ENV)
    if not once_dir:
        return True
    marker = Path(once_dir) / (
        env_name.lower() + "-" + label.replace(":", "_")
    )
    if marker.exists():
        return False
    marker.parent.mkdir(parents=True, exist_ok=True)
    marker.touch()
    return True


def _maybe_inject_failure(label: str) -> None:
    """Process-level chaos: die the way real workers die (worker only)."""
    if os.environ.get(CRASH_MODE_ENV) == "midrun":
        # Fires inside the attempt, after N simulation events — see
        # _arm_midrun_chaos.  Consuming the once-marker here would
        # disarm it before the run even starts.
        return
    if not _chaos_armed(CRASH_SPEC_ENV, label):
        return
    mode = os.environ.get(CRASH_MODE_ENV, "exit")
    if mode == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    elif mode == "stop":
        # Freeze every thread (heartbeats included); only the
        # supervisor's liveness check can reap us now.
        os.kill(os.getpid(), signal.SIGSTOP)
        return
    elif mode == "hang":
        # Heartbeats keep flowing while the "run" never finishes — the
        # shape only a run timeout catches.
        time.sleep(3600.0)
        return
    os._exit(_CHAOS_EXIT_CODE)


def _arm_midrun_chaos(label: str, runner: "SimulationRunner") -> None:
    """Mid-simulation chaos: SIGKILL the worker after N fired events.

    Registered *after* the cell's :class:`CheckpointWriter`, so when the
    kill event is also a checkpoint event the snapshot is durable before
    the process dies — the exact torn-mid-run shape the restore gate in
    CI replays.
    """
    if os.environ.get(CRASH_MODE_ENV) != "midrun":
        return
    if not _chaos_armed(CRASH_SPEC_ENV, label):
        return
    target = int(os.environ.get(CRASH_EVENT_ENV, "500"))
    engine = runner.engine

    def die_midrun(event: object) -> None:
        if engine.fired >= target:
            os.kill(os.getpid(), signal.SIGKILL)

    engine.add_observer(die_midrun)


def _execute_attempt(
    spec: RunSpec,
    config: SupervisorConfig,
    notify: Optional[Notify] = None,
) -> Dict[str, Any]:
    """One attempt at a spec, with the chaos hooks applied.

    The runner comes from :func:`~repro.checkpoint.checkpointed_runner`.
    Without :attr:`SupervisorConfig.checkpoint_dir` the attempt is
    exactly ``spec.execute()``.  With it, the attempt resumes from the
    cell's newest checkpoint when one exists (reporting ``restored`` via
    ``notify``), falls back to a from-scratch run when that checkpoint
    is damaged or stale (``checkpoint-fallback``), and checkpoints
    periodically when :attr:`SupervisorConfig.checkpoint_every_events`
    is set.
    """
    label = spec.label()
    if _chaos_armed(RAISE_SPEC_ENV, label):
        raise RuntimeError(f"injected failure for {label}")
    cell_dir: Optional[str] = None
    resume_path: Optional[str] = None
    if config.checkpoint_dir is not None:
        cell_dir = cell_checkpoint_dir(config.checkpoint_dir, label)
        resume_path = latest_checkpoint(cell_dir)

    build = functools.partial(
        checkpointed_runner,
        spec,
        checkpoint_dir=cell_dir,
        checkpoint_every_events=config.checkpoint_every_events,
    )
    runner: Optional["SimulationRunner"] = None
    if resume_path is not None:
        try:
            runner = build(restore_from=resume_path)
        except CheckpointError as error:
            if notify is not None:
                notify(
                    "checkpoint-fallback",
                    f"unusable checkpoint "
                    f"{os.path.basename(resume_path)} ({error}); "
                    "starting from scratch",
                )
        else:
            if notify is not None:
                notify("restored", resume_path)
    if runner is None:
        runner = build()
    _arm_midrun_chaos(label, runner)
    return run_result_to_dict(
        runner.run(until=spec.resolved_scenario().horizon_s)
    )


# ---------------------------------------------------------------------- #
# The worker side


def _supervised_worker(conn: Connection, config: SupervisorConfig) -> None:
    """Process entry point: serve specs off the pipe until told to stop.

    Module-level so the ``spawn`` context can import it.  The worker
    imports once, announces itself with a startup heartbeat, then loops:
    receive ``(index, spec)``, run it, answer with one terminal message.
    A ``None`` message (or EOF: the supervisor is gone) ends the loop.
    All pipe writes share a lock because the heartbeat thread and the
    main thread both send.  Checkpoint notices (``restored`` and
    ``checkpoint-fallback``) travel the same pipe as non-terminal
    messages.

    Heartbeats flow only while a cell is in flight.  The main thread
    sets ``busy`` when an assignment arrives and clears it under the
    send lock in the same step that sends the terminal message; the
    heartbeat thread checks it under that lock before each beat.  So no
    beat ever follows a terminal message, and a worker parked between
    batches writes nothing to its pipe however long it idles.
    """
    lock = threading.Lock()
    busy = threading.Event()
    stop = threading.Event()

    def send(message: Tuple[str, Any], beat: bool = False) -> None:
        with lock:
            if beat and not busy.is_set():
                return  # the cell finished while this beat waited
            if message[0] in _TERMINAL_KINDS:
                busy.clear()
            try:
                conn.send(message)
            except (OSError, ValueError):
                # The supervisor is gone (killed us, or died itself);
                # nothing useful is left to report to.
                pass

    send(("hb", 0))  # startup heartbeat: spawn + imports succeeded
    # A finished runner frees by refcount (its run detaches it), so a
    # warm worker needs no collection between cells.  Freezing what the
    # imports built keeps the collector's occasional full passes off
    # those long-lived objects.
    gc.freeze()

    def beat() -> None:
        sequence = 1
        while busy.wait() and not stop.wait(config.heartbeat_interval_s):
            send(("hb", sequence), beat=True)
            sequence += 1

    threading.Thread(target=beat, daemon=True, name="sweep-heartbeat").start()
    try:
        while True:
            try:
                assignment = conn.recv()
            except (EOFError, OSError):
                break
            if assignment is None:
                break
            _, spec = assignment
            busy.set()
            _serve(spec, config, send)
    finally:
        stop.set()
        busy.set()  # wake the heartbeat thread so it sees ``stop``
        with lock:
            conn.close()


def _serve(
    spec: RunSpec,
    config: SupervisorConfig,
    send: Callable[[Tuple[str, Any]], None],
) -> None:
    """Run one assignment and send its terminal message.

    A function of its own so the run's runner, result and payload die
    with this frame instead of lingering in the worker until its next
    spec.
    """
    _maybe_inject_failure(spec.label())
    try:
        payload = _execute_attempt(
            spec, config, lambda kind, detail: send((kind, detail))
        )
    except Exception as error:  # codalint: disable=CL004
        # The process boundary is exactly where arbitrary spec failures
        # must be marshalled (not propagated): the supervisor decides
        # whether this attempt is retried or the spec quarantined.
        send(("error", f"{type(error).__name__}: {error}"))
    else:
        send(("ok", payload))


# ---------------------------------------------------------------------- #
# The supervisor side


@dataclass
class _Worker:
    process: "multiprocessing.process.BaseProcess"
    conn: Connection
    #: :func:`_launch_key` at launch: what the process inherited.
    key: Tuple[Any, ...]
    #: Index of the spec in flight; ``None`` while the worker is idle.
    index: Optional[int] = None
    #: Run-timeout and heartbeat clocks, both restarted at dispatch.
    deadline: Optional[float] = None
    last_heartbeat: float = 0.0
    #: Checkpoint notices drained off the pipe, pending emission.
    notices: List[Tuple[str, str]] = field(default_factory=list)


#: Idle workers parked between batches, reused by the next batch whose
#: :func:`_launch_key` matches theirs.  ``_parked_lock`` guards every
#: hand-off in and out, should batches run on several threads.
_parked: List[_Worker] = []
_parked_lock = threading.Lock()


def _launch_key(config: SupervisorConfig) -> Tuple[Any, ...]:
    """Everything a worker spawned now would inherit from this process.

    A parked worker serves a later batch only while this is unchanged.
    The worker reads its environment (the ``REPRO_TEST_*`` chaos hooks,
    ``REPRO_AUDIT``, ``REPRO_REFERENCE``, ``PYTHONHASHSEED``) as it was
    at spawn, and spawn preparation replays ``sys.path``, the working
    directory, the main module and ``sys.argv`` in the child.
    """
    main = sys.modules.get("__main__")
    return (
        sorted(os.environ.items()),
        list(sys.path),
        os.getcwd(),
        getattr(getattr(main, "__spec__", None), "name", None),
        getattr(main, "__file__", None),
        list(sys.argv),
        multiprocessing.spawn.get_executable(),
        config,
    )


def _adopt(key: Tuple[Any, ...], slots: int) -> List[_Worker]:
    """Take up to ``slots`` live parked workers launched under ``key``.

    Parked workers launched under any other key are stopped: they would
    not compute what a fresh worker computes.  Dead ones are reaped.
    """
    with _parked_lock:
        stale = [w for w in _parked if w.key != key]
        matching = [w for w in _parked if w.key == key]
        adopted, _parked[:] = matching[:slots], matching[slots:]
    _shutdown(stale)
    live: List[_Worker] = []
    for worker in adopted:
        if worker.process.is_alive():
            live.append(worker)
        else:
            _reap(worker)
    return live


def stop_idle_workers() -> None:
    """Stop every parked worker: ask it to exit, then join it (bounded).

    Runs at interpreter exit; call it to release parked workers sooner.
    A worker whose supervisor dies without it exits on pipe EOF.
    """
    with _parked_lock:
        workers = list(_parked)
        _parked.clear()
    _shutdown(workers)


atexit.register(stop_idle_workers)


def _launch(
    context: "multiprocessing.context.SpawnContext",
    config: SupervisorConfig,
) -> Tuple["multiprocessing.process.BaseProcess", Connection]:
    """Start one worker; returns (process, supervisor's end of the pipe).

    Separated out so tests can monkeypatch it to simulate spawn-level
    infrastructure failures.
    """
    parent_conn, child_conn = context.Pipe(duplex=True)
    process = context.Process(
        target=_supervised_worker,
        args=(child_conn, config),
        daemon=True,
    )
    process.start()
    # Drop the parent's copy of the child's end so a dead worker reads
    # as EOF instead of a pipe that never closes.
    child_conn.close()
    return process, parent_conn


def _reap(worker: _Worker, grace_s: float = 0.0) -> None:
    """Join a worker, killing it if still alive after ``grace_s``.

    Every join is bounded, so a wedged worker can never hang the
    supervisor.
    """
    worker.process.join(timeout=grace_s)
    if worker.process.is_alive():
        worker.process.kill()
        worker.process.join(timeout=_REAP_TIMEOUT_S)
    worker.conn.close()


def _shutdown(workers: List[_Worker]) -> None:
    """Stop idle workers in order, kill busy ones, and join them all."""
    for worker in workers:
        if worker.index is not None:
            worker.process.kill()
            continue
        try:
            worker.conn.send(None)
        except (OSError, ValueError):
            pass  # already dead; the reap below collects it
    for worker in workers:
        _reap(worker, grace_s=_REAP_TIMEOUT_S)
    workers.clear()


def _pump(worker: _Worker, now: float) -> Optional[Tuple[str, Any]]:
    """Drain buffered messages; return the terminal one, if any.

    Heartbeats refresh ``last_heartbeat`` and are swallowed; checkpoint
    notices are queued on ``worker.notices`` for the collect loop to
    emit.  ``eof`` means the worker closed (or died on) the pipe without
    a terminal message — a crash.
    """
    try:
        while worker.conn.poll():
            kind, detail = worker.conn.recv()
            if kind == "hb":
                worker.last_heartbeat = now
            elif kind in ("restored", "checkpoint-fallback"):
                worker.notices.append((str(kind), str(detail)))
            else:
                return (str(kind), detail)
    except (EOFError, OSError):
        return ("eof", None)
    return None


def run_supervised(
    specs: Sequence[RunSpec],
    *,
    jobs: int,
    config: Optional[SupervisorConfig] = None,
    on_event: Optional[EventSink] = None,
) -> List[RunOutcome]:
    """Execute ``specs`` under supervision; outcomes align by index.

    Never raises on run failures: every spec ends ``ok`` or
    ``quarantined`` and the batch always completes.  ``jobs > 1`` runs
    every batch on supervised workers, a one-spec batch included;
    ``jobs <= 1`` takes the in-process serial path directly (no spawn
    overhead, no timeout enforcement), and repeated spawn failures
    degrade to it mid-batch.

    A SIGINT/SIGTERM (``KeyboardInterrupt``) does raise — as
    :class:`SupervisorInterrupted`, after in-flight workers are reaped,
    carrying the partial outcomes so the caller can journal and flush
    what already settled.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1: {jobs}")
    config = config if config is not None else SupervisorConfig()
    emit = on_event if on_event is not None else _no_event
    outcomes = [
        RunOutcome(index=index, label=spec.label())
        for index, spec in enumerate(specs)
    ]
    try:
        if jobs > 1:
            degraded = _run_spawned(specs, outcomes, jobs, config, emit)
            if degraded is not None:
                emit(SupervisorEvent(kind="degrade", reason=degraded))
                _run_serial(specs, outcomes, config, emit)
        else:
            _run_serial(specs, outcomes, config, emit)
    except KeyboardInterrupt:
        raise SupervisorInterrupted(outcomes) from None
    return outcomes


def _run_serial(
    specs: Sequence[RunSpec],
    outcomes: List[RunOutcome],
    config: SupervisorConfig,
    emit: EventSink,
) -> None:
    """In-process fallback: retries and quarantine, no preemption."""
    for outcome in outcomes:
        if outcome.status:
            continue  # already settled by the spawn path
        spec = specs[outcome.index]

        def notify(kind: str, detail: str, outcome: RunOutcome = outcome) -> None:
            emit(outcome.event(kind, detail))

        while True:
            outcome.attempts += 1
            emit(outcome.event("attempt"))
            try:
                payload = _execute_attempt(spec, config, notify)
            except Exception as error:  # codalint: disable=CL004
                # Serial supervision must survive arbitrary spec
                # failures to retry or quarantine them, same as the
                # process boundary does.
                reason = f"{type(error).__name__}: {error}"
                if not _note_failure(outcome, config, emit, reason):
                    break
                delay = config.backoff_s(outcome.label, len(outcome.failures))
                if delay > 0:
                    time.sleep(delay)
            else:
                _note_success(outcome, payload, emit)
                break


def _note_success(
    outcome: RunOutcome, payload: Dict[str, Any], emit: EventSink
) -> None:
    outcome.status = OUTCOME_OK
    outcome.payload = payload
    emit(outcome.event("ok", payload=payload))


def _note_failure(
    outcome: RunOutcome,
    config: SupervisorConfig,
    emit: EventSink,
    reason: str,
) -> bool:
    """Record one failed attempt; True when a retry is still allowed."""
    outcome.failures.append(reason)
    emit(outcome.event("failure", reason))
    if outcome.attempts > config.max_retries:
        outcome.status = OUTCOME_QUARANTINED
        emit(outcome.event("quarantine", reason))
        return False
    emit(outcome.event("retry", reason))
    return True


def _run_spawned(
    specs: Sequence[RunSpec],
    outcomes: List[RunOutcome],
    jobs: int,
    config: SupervisorConfig,
    emit: EventSink,
) -> Optional[str]:
    """The spawn-pool supervision loop over long-lived workers.

    Returns ``None`` when every outcome settled, or a degradation reason
    — in which case still-unsettled outcomes are left for the serial
    fallback (any in-flight attempts are un-charged).  The batch starts
    on the parked workers whose launch key matches.  When the loop
    returns, its idle workers are parked for the next batch and busy
    ones killed; when it raises, idle workers are stopped and busy ones
    killed before the exception propagates: a graceful shutdown on
    SIGINT/SIGTERM leaves the interrupted attempts journalled as
    attempts, and the caller flushes whatever already settled.
    """
    context = multiprocessing.get_context("spawn")
    slots = min(jobs, len(specs))
    workers = _adopt(_launch_key(config), slots)
    idle: List[_Worker] = []
    try:
        degraded = _spawned_loop(
            specs, outcomes, slots, config, emit, context, workers
        )
        # Only a batch that ran to its end parks: an interrupt (or
        # anything unforeseen) stops every worker it had.
        idle = [w for w in workers if w.index is None]
        workers[:] = [w for w in workers if w.index is not None]
        return degraded
    finally:
        _shutdown(workers)
        with _parked_lock:
            _parked.extend(idle)


def _spawned_loop(
    specs: Sequence[RunSpec],
    outcomes: List[RunOutcome],
    slots: int,
    config: SupervisorConfig,
    emit: EventSink,
    context: "multiprocessing.context.SpawnContext",
    workers: List[_Worker],
) -> Optional[str]:
    #: (not-before wall time, index) of runs awaiting (re)dispatch.
    pending: List[Tuple[float, int]] = [
        (0.0, index) for index in range(len(specs))
    ]
    spawn_failures = 0

    def fail(index: int, reason: str, now: float) -> None:
        outcome = outcomes[index]
        if _note_failure(outcome, config, emit, reason):
            delay = config.backoff_s(outcome.label, len(outcome.failures))
            pending.append((now + delay, index))

    def retire(worker: _Worker) -> None:
        _reap(worker)
        workers.remove(worker)

    while pending or any(w.index is not None for w in workers):
        now = _wall_now()
        # -- dispatch ----------------------------------------------------
        pending.sort()
        while pending and pending[0][0] <= now:
            worker = next((w for w in workers if w.index is None), None)
            if worker is None:
                if len(workers) >= slots:
                    break
                try:
                    process, conn = _launch(context, config)
                except OSError as error:
                    # Infrastructure, not the spec: nothing is charged.
                    spawn_failures += 1
                    if spawn_failures >= config.spawn_failure_limit:
                        for busy in workers:
                            if busy.index is not None:
                                outcomes[busy.index].attempts -= 1
                        return (
                            f"{spawn_failures} consecutive worker spawn "
                            f"failures (last: {error}); falling back to "
                            "in-process serial execution"
                        )
                    # Cool off before the next launch try.
                    pending[0] = (now + config.poll_interval_s, pending[0][1])
                    break
                spawn_failures = 0
                worker = _Worker(
                    process=process, conn=conn, key=_launch_key(config)
                )
                workers.append(worker)
            index = pending[0][1]
            try:
                worker.conn.send((index, specs[index]))
            except (OSError, ValueError):
                # The worker died idle, after its last answer: replace
                # it without charging the spec.
                retire(worker)
                continue
            pending.pop(0)
            outcome = outcomes[index]
            outcome.attempts += 1
            emit(outcome.event("attempt"))
            worker.index = index
            worker.deadline = (
                now + config.run_timeout_s
                if config.run_timeout_s is not None
                else None
            )
            worker.last_heartbeat = now

        # -- wait --------------------------------------------------------
        can_dispatch = len(workers) < slots or any(
            w.index is None for w in workers
        )
        timeout = _wait_timeout_s(workers, pending, can_dispatch, config, now)
        if workers:
            connection_wait([w.conn for w in workers], timeout=timeout)
        elif pending:
            time.sleep(timeout)

        # -- collect -----------------------------------------------------
        now = _wall_now()
        for worker in list(workers):
            terminal = _pump(worker, now)
            if terminal is None and not worker.process.is_alive():
                # Exited between polls; drain any message that raced out.
                terminal = _pump(worker, now)
                if terminal is None:
                    terminal = ("eof", None)
            index = worker.index
            if index is None:
                # Idle workers only beat; anything else means it died.
                if terminal is not None:
                    retire(worker)
                continue
            outcome = outcomes[index]
            # Emit checkpoint notices before the terminal verdict so a
            # ``restored`` line always precedes its attempt's ``ok``.
            for notice_kind, notice in worker.notices:
                emit(outcome.event(notice_kind, notice))
            worker.notices.clear()
            if terminal is not None:
                kind, detail = terminal
                if kind == "ok":
                    worker.index = None
                    _note_success(outcome, detail, emit)
                elif kind == "error":
                    # The spec raised; the worker itself is healthy.
                    worker.index = None
                    fail(index, str(detail), now)
                else:
                    retire(worker)
                    code = worker.process.exitcode
                    fail(index, f"worker crashed (exit code {code})", now)
                continue
            expired = worker.deadline is not None and now >= worker.deadline
            silent = (
                config.heartbeat_timeout_s is not None
                and now - worker.last_heartbeat >= config.heartbeat_timeout_s
            )
            if expired or silent:
                retire(worker)
                if expired:
                    reason = (
                        "run exceeded timeout "
                        f"({config.run_timeout_s:g}s); worker killed"
                    )
                else:
                    reason = (
                        "no heartbeat for "
                        f"{config.heartbeat_timeout_s:g}s; worker presumed "
                        "hung and killed"
                    )
                fail(index, reason, now)
    return None


def _wait_timeout_s(
    workers: List[_Worker],
    pending: List[Tuple[float, int]],
    can_dispatch: bool,
    config: SupervisorConfig,
    now: float,
) -> float:
    """How long the loop may block before the next deadline matters.

    Pending runs only bound the wait while a worker slot could take
    them; otherwise the next completion is what frees one, and that
    wakes the wait on its own.
    """
    horizon = now + config.poll_interval_s
    for worker in workers:
        if worker.index is None:
            continue
        if worker.deadline is not None:
            horizon = min(horizon, worker.deadline)
        if config.heartbeat_timeout_s is not None:
            horizon = min(
                horizon, worker.last_heartbeat + config.heartbeat_timeout_s
            )
    if pending and can_dispatch:
        horizon = min(horizon, min(ready for ready, _ in pending))
    return max(0.01, horizon - now)
