"""The seeded fault injector.

The injector is a pure event generator: it decides *when and where* faults
happen, while the :class:`~repro.experiments.runner.SimulationRunner`
executes *what they mean* (evictions, checkpoint restarts, telemetry
blackouts, repricing).  One independent RNG stream per (channel, node)
keeps the schedule deterministic and decoupled: changing the node-crash
MTBF does not move a single telemetry dropout.  The injector keeps no log
of what it injected: each fault is a ``fault:*`` event, so an engine
observer sees the schedule as the engine fired it.

Channel processes (all renewal processes with exponential gaps):

* ``node:<i>``      — crash node *i*, recover after ``node_mttr_s``, repeat;
* ``gpu:<i>``       — fail one random healthy GPU of node *i*;
* ``mbm:<i>``       — blind node *i*'s bandwidth monitor for a window;
* ``straggler``     — slow one random running CPU job for a while.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, List, Optional

from repro.faults.config import FaultConfig
from repro.sim.engine import Timer
from repro.sim.rng import RngRegistry
from repro.sim.state import INT, NESTED, NODE_ID, Refs, Stateful, Struct

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.node import Node
    from repro.experiments.runner import SimulationRunner

FAULT_CRASH = Timer("fault:crash", NODE_ID)
FAULT_RECOVER = Timer("fault:recover", NODE_ID)
FAULT_GPU = Timer("fault:gpu", NODE_ID)
FAULT_GPU_REPAIR = Timer("fault:gpu-repair", NODE_ID, INT)
FAULT_MBM = Timer("fault:mbm", NODE_ID)
FAULT_STRAGGLER = Timer("fault:straggler")


class FaultInjector(Stateful):
    """Schedules failure/recovery events against a simulation runner."""

    #: RNG positions.  The pending fault timers live in the engine's
    #: event inventory, one declared family per timer.
    STATE = Struct(("rng", NESTED))

    def __init__(
        self, config: Optional[FaultConfig] = None, *, seed: Optional[int] = None
    ) -> None:
        self.config = config or FaultConfig()
        self.rng = RngRegistry(seed if seed is not None else self.config.seed)
        self._runner: Optional["SimulationRunner"] = None

    @property
    def _attached(self) -> "SimulationRunner":
        if self._runner is None:
            raise RuntimeError("fault injector is not attached to a runner")
        return self._runner

    # ------------------------------------------------------------------ #
    # Wiring

    def attach(self, runner: "SimulationRunner") -> None:
        """Declare and arm every configured channel on ``runner``'s engine;
        a restore requires each channel's live timers.

        Idempotent per runner; attaching twice would double the failure
        rate, so it is refused.
        """
        if self._runner is not None:
            raise RuntimeError("fault injector already attached")
        self._runner = runner
        config, engine, nodes = self.config, runner.engine, runner.cluster.nodes

        def node_ids(keep: Callable[[Node], object]) -> Callable[[Refs], List[Any]]:
            return lambda _: [(node.node_id,) for node in nodes if keep(node)]

        if config.node_mtbf_s is not None:
            up = node_ids(lambda node: node.is_up)
            engine.declare(FAULT_CRASH, self._crash_node, requires=up)
            down = node_ids(lambda node: not node.is_up)
            engine.declare(FAULT_RECOVER, self._recover_node, requires=down)
            for node in nodes:
                self._arm_node_crash(node.node_id)
        if config.gpu_mtbf_s is not None:
            with_gpus = node_ids(lambda node: node.total_gpus)
            engine.declare(FAULT_GPU, self._fail_gpu, requires=with_gpus)
            engine.declare(
                FAULT_GPU_REPAIR,
                self._repair_gpu,
                requires=lambda _: [
                    (n.node_id, g.gpu_id) for n in nodes for g in n.gpus if g.failed
                ],
            )
            for node in nodes:
                self._arm_gpu_failure(node.node_id)
        if config.telemetry_mtbf_s is not None:
            every = node_ids(lambda node: True)
            engine.declare(FAULT_MBM, self._drop_telemetry, requires=every)
            for node in nodes:
                self._arm_telemetry(node.node_id)
        if config.straggler_interval_s is not None:
            engine.declare(FAULT_STRAGGLER, self._straggle, requires=lambda _: [()])
            self._arm_straggler()

    def detach(self) -> None:
        """Let go of the runner as its run ends (the runner holds this
        injector)."""
        self._runner = None

    def _arm(self, timer: Timer, delay: float, *args: int) -> None:
        engine = self._attached.engine
        engine.arm(timer, engine.now + delay, *args)

    def _exp(self, stream: str, mean: float) -> float:
        return self.rng.stream(stream).expovariate(1.0 / mean)

    # ------------------------------------------------------------------ #
    # Node crash / recover

    def _arm_node_crash(self, node_id: int) -> None:
        delay = self._exp(f"node:{node_id}", self.config.node_mtbf_s)
        self._arm(FAULT_CRASH, delay, node_id)

    def _crash_node(self, node_id: int) -> None:
        self._attached.fail_node(node_id)
        self._arm(FAULT_RECOVER, self.config.node_mttr_s, node_id)

    def _recover_node(self, node_id: int) -> None:
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
        self._arm(FAULT_GPU, delay, node_id)

    def _fail_gpu(self, node_id: int) -> None:
        node = self._attached.cluster.node(node_id)
        healthy = [gpu.gpu_id for gpu in node.gpus if not gpu.failed]
        if node.is_up and healthy:
            gpu_id = self.rng.stream(f"gpu:{node_id}").choice(healthy)
            self._attached.fail_gpu(node_id, gpu_id)
            self._arm(FAULT_GPU_REPAIR, self.config.gpu_mttr_s, node_id, gpu_id)
        self._arm_gpu_failure(node_id)

    def _repair_gpu(self, node_id: int, gpu_id: int) -> None:
        self._attached.repair_gpu(node_id, gpu_id)

    # ------------------------------------------------------------------ #
    # MBM telemetry dropout

    def _arm_telemetry(self, node_id: int) -> None:
        delay = self._exp(f"mbm:{node_id}", self.config.telemetry_mtbf_s)
        self._arm(FAULT_MBM, delay, node_id)

    def _drop_telemetry(self, node_id: int) -> None:
        self._attached.begin_telemetry_outage(
            node_id, self.config.telemetry_outage_s
        )
        self._arm_telemetry(node_id)

    # ------------------------------------------------------------------ #
    # CPU-job straggler

    def _arm_straggler(self) -> None:
        delay = self._exp("straggler", self.config.straggler_interval_s)
        self._arm(FAULT_STRAGGLER, delay)

    def _straggle(self) -> None:
        candidates = sorted(self._attached.running_cpu_job_ids())
        if candidates:
            job_id = self.rng.stream("straggler").choice(candidates)
            self._attached.apply_cpu_straggler(
                job_id,
                factor=self.config.straggler_factor,
                duration_s=self.config.straggler_duration_s,
            )
        self._arm_straggler()
