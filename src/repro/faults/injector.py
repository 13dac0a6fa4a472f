"""The seeded fault injector.

The injector is a pure event generator: it decides *when and where* faults
happen, while the :class:`~repro.experiments.runner.SimulationRunner`
executes *what they mean* (evictions, checkpoint restarts, telemetry
blackouts, repricing).  One independent RNG stream per (channel, node)
keeps the schedule deterministic and decoupled: changing the node-crash
MTBF does not move a single telemetry dropout.

Channel processes (all renewal processes with exponential gaps):

* ``node:<i>``      — crash node *i*, recover after ``node_mttr_s``, repeat;
* ``gpu:<i>``       — fail one random healthy GPU of node *i*;
* ``mbm:<i>``       — blind node *i*'s bandwidth monitor for a window;
* ``straggler``     — slow one random running CPU job for a while.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.faults.config import FaultConfig
from repro.sim.events import EventPriority
from repro.sim.rng import RngRegistry
from repro.sim.state import FLOAT, NESTED, STR, DictOf, ListOf, Row, Scalar, Stateful
from repro.sim.state import Struct

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.experiments.runner import SimulationRunner

#: One injected-fault log entry: (sim time, channel kind, detail fields).
InjectedEvent = Tuple[float, str, Dict[str, object]]


class FaultInjector(Stateful):
    """Schedules failure/recovery events against a simulation runner."""

    #: RNG positions and the injected log.  The pending fault timers live
    #: in the engine's event inventory; :meth:`rearm` rebuilds their
    #: closures from the tags alone.
    STATE = Struct(
        ("rng", NESTED),
        ("injected", ListOf(Row(FLOAT, STR, DictOf(STR, Scalar(int, str))))),
    )

    def __init__(
        self, config: Optional[FaultConfig] = None, *, seed: Optional[int] = None
    ) -> None:
        self.config = config or FaultConfig()
        self.rng = RngRegistry(seed if seed is not None else self.config.seed)
        self._runner: Optional["SimulationRunner"] = None
        #: Injected-event log for tests and reports: (time, kind, detail).
        self.injected: List[InjectedEvent] = []

    @property
    def _attached(self) -> "SimulationRunner":
        if self._runner is None:
            raise RuntimeError("fault injector is not attached to a runner")
        return self._runner

    # ------------------------------------------------------------------ #
    # Wiring

    def attach(self, runner: "SimulationRunner") -> None:
        """Arm every configured channel against ``runner``'s engine.

        Idempotent per runner; attaching twice would double the failure
        rate, so it is refused.
        """
        if self._runner is not None:
            raise RuntimeError("fault injector already attached")
        self._runner = runner
        config = self.config
        num_nodes = len(runner.cluster.nodes)
        if config.node_mtbf_s is not None:
            for node_id in range(num_nodes):
                self._arm_node_crash(node_id)
        if config.gpu_mtbf_s is not None:
            for node_id in range(num_nodes):
                self._arm_gpu_failure(node_id)
        if config.telemetry_mtbf_s is not None:
            for node_id in range(num_nodes):
                self._arm_telemetry(node_id)
        if config.straggler_interval_s is not None:
            self._arm_straggler()

    def detach(self) -> None:
        """Let go of the runner as its run ends (the runner holds this
        injector)."""
        self._runner = None

    def _schedule(
        self, delay: float, action: Callable[[], None], tag: str
    ) -> None:
        self._attached.engine.schedule_in(
            delay, action, priority=EventPriority.MONITOR, tag=tag
        )

    def _exp(self, stream: str, mean: float) -> float:
        return self.rng.stream(stream).expovariate(1.0 / mean)

    def _log(self, kind: str, **detail: object) -> None:
        self.injected.append((self._attached.engine.now, kind, detail))

    # ------------------------------------------------------------------ #
    # Node crash / recover

    def _arm_node_crash(self, node_id: int) -> None:
        delay = self._exp(f"node:{node_id}", self.config.node_mtbf_s)
        self._schedule(
            delay,
            lambda: self._crash_node(node_id),
            tag=f"fault:crash:{node_id}",
        )

    def _crash_node(self, node_id: int) -> None:
        self._log("node-crash", node_id=node_id)
        self._attached.fail_node(node_id)
        self._schedule(
            self.config.node_mttr_s,
            lambda: self._recover_node(node_id),
            tag=f"fault:recover:{node_id}",
        )

    def _recover_node(self, node_id: int) -> None:
        self._log("node-recover", node_id=node_id)
        self._attached.recover_node(node_id)
        self._arm_node_crash(node_id)

    # ------------------------------------------------------------------ #
    # Single-GPU failure / repair

    def _arm_gpu_failure(self, node_id: int) -> None:
        node = self._attached.cluster.node(node_id)
        per_device = self.config.gpu_mtbf_s
        if node.total_gpus == 0:
            return
        # N devices with independent Exp(mtbf) lifetimes fail as a merged
        # Poisson process of rate N/mtbf.
        delay = self._exp(f"gpu:{node_id}", per_device / node.total_gpus)
        self._schedule(
            delay,
            lambda: self._fail_gpu(node_id),
            tag=f"fault:gpu:{node_id}",
        )

    def _fail_gpu(self, node_id: int) -> None:
        node = self._attached.cluster.node(node_id)
        healthy = [gpu.gpu_id for gpu in node.gpus if not gpu.failed]
        if node.is_up and healthy:
            gpu_id = self.rng.stream(f"gpu:{node_id}").choice(healthy)
            self._log("gpu-fail", node_id=node_id, gpu_id=gpu_id)
            self._attached.fail_gpu(node_id, gpu_id)
            # The gpu id rides in the tag so a checkpoint restore can
            # rebuild this closure from the live-event inventory alone
            # (and so two pending repairs on one node cannot collide).
            self._schedule(
                self.config.gpu_mttr_s,
                lambda: self._repair_gpu(node_id, gpu_id),
                tag=f"fault:gpu-repair:{node_id}:{gpu_id}",
            )
        self._arm_gpu_failure(node_id)

    def _repair_gpu(self, node_id: int, gpu_id: int) -> None:
        self._log("gpu-repair", node_id=node_id, gpu_id=gpu_id)
        self._attached.repair_gpu(node_id, gpu_id)

    # ------------------------------------------------------------------ #
    # MBM telemetry dropout

    def _arm_telemetry(self, node_id: int) -> None:
        delay = self._exp(f"mbm:{node_id}", self.config.telemetry_mtbf_s)
        self._schedule(
            delay,
            lambda: self._drop_telemetry(node_id),
            tag=f"fault:mbm:{node_id}",
        )

    def _drop_telemetry(self, node_id: int) -> None:
        self._log("telemetry-dropout", node_id=node_id)
        self._attached.begin_telemetry_outage(
            node_id, self.config.telemetry_outage_s
        )
        self._arm_telemetry(node_id)

    # ------------------------------------------------------------------ #
    # CPU-job straggler

    def _arm_straggler(self) -> None:
        delay = self._exp("straggler", self.config.straggler_interval_s)
        self._schedule(delay, self._straggle, tag="fault:straggler")

    def _straggle(self) -> None:
        candidates = sorted(self._attached.running_cpu_job_ids())
        if candidates:
            job_id = self.rng.stream("straggler").choice(candidates)
            self._log("straggler", job_id=job_id)
            self._attached.apply_cpu_straggler(
                job_id,
                factor=self.config.straggler_factor,
                duration_s=self.config.straggler_duration_s,
            )
        self._arm_straggler()

    # ------------------------------------------------------------------ #
    # Checkpoint re-arm

    def rearm(self, engine: Any) -> None:
        """Re-claim every snapshotted ``fault:*`` event from ``engine``.

        Runs inside an engine restore window: the construction-time arms
        scheduled by :meth:`attach` were discarded with the rest of the
        heap, and each live fault timer is rebuilt under its original
        ``(time, priority, seq)`` from the information in its tag.
        """
        for tag in engine.pending_rearm_tags():
            if not tag.startswith("fault:"):
                continue
            parts = tag.split(":")
            kind = parts[1]
            if kind == "crash":
                node_id = int(parts[2])
                engine.rearm(
                    tag, lambda node_id=node_id: self._crash_node(node_id)
                )
            elif kind == "recover":
                node_id = int(parts[2])
                engine.rearm(
                    tag, lambda node_id=node_id: self._recover_node(node_id)
                )
            elif kind == "gpu":
                node_id = int(parts[2])
                engine.rearm(
                    tag, lambda node_id=node_id: self._fail_gpu(node_id)
                )
            elif kind == "gpu-repair":
                node_id, gpu_id = int(parts[2]), int(parts[3])
                engine.rearm(
                    tag,
                    lambda node_id=node_id, gpu_id=gpu_id: self._repair_gpu(
                        node_id, gpu_id
                    ),
                )
            elif kind == "mbm":
                node_id = int(parts[2])
                engine.rearm(
                    tag, lambda node_id=node_id: self._drop_telemetry(node_id)
                )
            elif kind == "straggler":
                engine.rearm(tag, self._straggle)
            else:
                raise RuntimeError(f"cannot re-arm unknown fault tag {tag!r}")
