"""A hand-cranked SchedulerContext for unit-testing CODA components."""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.cluster.cluster import Cluster
from repro.schedulers.base import SchedulerContext


class FakeHandle:
    def __init__(self) -> None:
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class FakeContext(SchedulerContext):
    """Deterministic, manually-advanced context.

    * ``utilization_fn(job_id, cores) -> util`` supplies the profiling
      signal;
    * scheduled events queue up and fire when the test calls
      :meth:`fire_next`;
    * resizes succeed unless the test sets ``resize_allowed`` False or a
      per-value limit via ``max_resize``.
    """

    def __init__(
        self,
        utilization_fn: Callable[[str, int], float],
        cluster: Optional[Cluster] = None,
    ) -> None:
        self.cluster = cluster or Cluster()
        self._utilization_fn = utilization_fn
        self._now = 0.0
        self.cores: Dict[str, int] = {}
        self.events: List[Tuple[float, Callable[[], None], FakeHandle, str]] = []
        #: Declared timer handlers by family name.
        self.handlers: Dict[str, Callable[..., None]] = {}
        self.resize_allowed = True
        self.max_resize: Optional[int] = None
        self.resize_calls: List[Tuple[str, int]] = []
        self.throttled: List[Tuple[str, int]] = []
        self.halved: List[str] = []
        self.preempted: List[str] = []
        self.mba_supported = True
        self.running: set = set()
        self.schedule_requests = 0

    # ------------------------------------------------------------------ #
    # SchedulerContext

    @property
    def now(self) -> float:
        return self._now

    def declare_timer(self, timer, handler, *, requires=None, keep=None):
        self.handlers[timer.name] = handler

    def arm_timer(self, timer, delay_s, *args):
        handle = FakeHandle()
        action = partial(self.handlers[timer.name], *args)
        tag = timer.tag(args)
        self.events.append((self._now + delay_s, action, handle, tag))
        return handle

    def is_running_or_finished(self, job_id: str) -> bool:
        return job_id in self.running

    def resize_gpu_job_cores(self, job_id: str, cpus_per_node: int) -> bool:
        if not self.resize_allowed:
            return False
        if self.max_resize is not None and cpus_per_node > self.max_resize:
            return False
        self.resize_calls.append((job_id, cpus_per_node))
        self.cores[job_id] = cpus_per_node
        return True

    def gpu_job_utilization(self, job_id: str) -> float:
        if job_id not in self.running:
            raise KeyError(job_id)
        return self._utilization_fn(job_id, self.cores[job_id])

    def gpu_job_expected_utilization(self, job_id: str) -> float:
        return self.gpu_job_utilization(job_id)

    def throttle_cpu_job(self, job_id: str, node_id: int) -> bool:
        if not self.mba_supported:
            return False
        self.throttled.append((job_id, node_id))
        return True

    def halve_cpu_job_cores(self, job_id: str) -> None:
        self.halved.append(job_id)

    def preempt_job(self, job_id: str, *, preserve_progress: bool, reason: str) -> None:
        self.preempted.append(job_id)

    def request_schedule(self) -> None:
        self.schedule_requests += 1

    # ------------------------------------------------------------------ #
    # Test driving

    def start_job(self, job_id: str, cores: int) -> None:
        self.running.add(job_id)
        self.cores[job_id] = cores

    def stop_job(self, job_id: str) -> None:
        self.running.discard(job_id)

    def fire_next(self) -> bool:
        """Fire the earliest live scheduled event; False when none left."""
        live = [entry for entry in self.events if not entry[2].cancelled]
        if not live:
            return False
        live.sort(key=lambda entry: entry[0])
        when, action, handle, _ = live[0]
        self.events.remove((when, action, handle, _))
        self._now = max(self._now, when)
        action()
        return True

    def fire_all(self, limit: int = 100) -> int:
        fired = 0
        while fired < limit and self.fire_next():
            fired += 1
        return fired

    def release_cpu_throttle(self, job_id: str, node_id: int) -> None:
        node = self.cluster.nodes[node_id]
        node.mba.release(job_id)
