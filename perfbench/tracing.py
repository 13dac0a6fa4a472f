"""Outside-in tracing: split host time across the simulator's own modules.

Nothing under ``src/`` knows about this module.  :func:`installed` replaces
public entry points of ``repro`` classes and modules (and the import-site
bindings that callers actually use) with wrappers that record one span per
call, then puts every original back.  A span's *self time* is its duration
minus the time its child spans cover, so the self times of all spans add
up to the traced wall time, less whatever ran outside any span.

Each wrapper counts its calls under a *site* name (``"Cluster.allocate"``,
``"repro.schedulers.drf.place_gpu_job"``) and books its self time under a
*layer* key (``"cluster.mutation"``, ``"schedulers.place"``).
:func:`layer_metrics` turns those into the per-layer metrics the benchmark
reports.

Event actions are spans too: each action handed to ``Engine.schedule`` is
wrapped and booked under ``experiments.<category>``, where the category
names the layer that handles the event (see :data:`EVENT_CATEGORIES`).
An action that calls ``Engine.recategorize_current_event`` moves its own
span to the new category, so skipped passes and stale completion timers
are booked as ``schedule-skip`` and ``completion-stale``.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

_clock = time.perf_counter

#: Event-tag prefix -> the category its span is booked under.  ``profile:``
#: events are the adaptive allocator's Sec. V-B probe steps, not profiler
#: overhead; straggler heal timers belong to the fault channel that armed
#: them.
EVENT_CATEGORIES: Dict[str, str] = {
    "arrival": "arrival",
    "schedule-pass": "schedule-pass",
    "gpu-done": "gpu-done",
    "cpu-done": "cpu-done",
    "profile": "allocator-probe",
    "eliminator-tick": "eliminator-tick",
    "sample": "sample",
    "fault": "fault",
    "straggler-end": "fault",
    "requeue": "requeue",
    "quarantine-end": "quarantine-end",
}

#: Every reported category, including the two an action renames itself to.
CATEGORIES: Tuple[str, ...] = (
    "arrival",
    "schedule-pass",
    "schedule-skip",
    "gpu-done",
    "cpu-done",
    "completion-stale",
    "allocator-probe",
    "eliminator-tick",
    "sample",
    "fault",
    "requeue",
    "quarantine-end",
)

#: Layer key of events whose tag prefix is not in EVENT_CATEGORIES.  Their
#: time is attributed (it counts against ``trace.unattributed_s``) but no
#: metric reports it.
OTHER_EVENTS = "experiments.other"


class Tracer:
    """Span stack plus the totals the wrappers accumulate.

    ``self_s[layer]`` sums self times, ``calls[site]`` counts calls, and
    ``values[name]`` sums whatever the observe hooks extract from results
    (decisions returned, nodes scanned, ...).  ``pass_us`` keeps the
    inclusive duration of every scheduling pass for its percentiles.
    """

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.values: Dict[str, float] = defaultdict(float)
        self.pass_us: List[float] = []
        # One frame per open span: [seconds covered by child spans, layer].
        self._stack: List[List[Any]] = []
        self._event: Optional[List[Any]] = None

    # ------------------------------------------------------------------ #
    # Spans

    def wrap(
        self,
        layer: str,
        fn: Callable[..., Any],
        site: str,
        observe: Optional[Callable[[Any, float], None]] = None,
    ) -> Callable[..., Any]:
        """``fn`` recording a ``layer`` span and a ``site`` call count.

        ``observe(result, elapsed_s)`` runs after a call that returned.
        """
        stack = self._stack
        self_s = self.self_s
        calls = self.calls

        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = [0.0, layer]
            stack.append(frame)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = _clock() - t0
                stack.pop()
                self_s[frame[1]] += elapsed - frame[0]
                calls[site] += 1
                if stack:
                    stack[-1][0] += elapsed
            if observe is not None:
                observe(result, elapsed)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def call(self, layer: str, fn: Callable[..., Any], *args: Any) -> Any:
        """Run ``fn(*args)`` as one span of ``layer`` (counted as site
        ``layer``): how the benchmark times its own set-up steps."""
        return self.wrap(layer, fn, layer)(*args)

    def event_action(
        self, action: Callable[[], Any], tag: str
    ) -> Callable[[], Any]:
        """Wrap one scheduled event's action in a category span."""
        category = EVENT_CATEGORIES.get(tag.partition(":")[0])
        layer = OTHER_EVENTS if category is None else "experiments." + category
        stack = self._stack
        self_s = self.self_s
        calls = self.calls

        def fire() -> Any:
            frame = [0.0, layer]
            outer = self._event
            self._event = frame
            stack.append(frame)
            t0 = _clock()
            try:
                return action()
            finally:
                elapsed = _clock() - t0
                stack.pop()
                self._event = outer
                self_s[frame[1]] += elapsed - frame[0]
                calls[frame[1]] += 1
                if stack:
                    stack[-1][0] += elapsed

        return fire

    def recategorize(self, category: str) -> None:
        """Move the executing event's span to ``category``."""
        if self._event is not None:
            self._event[1] = "experiments." + category

    # ------------------------------------------------------------------ #
    # Reading

    def total_self_s(self) -> float:
        return sum(self.self_s.values())

    def sum_calls(self, sites: Sequence[str]) -> int:
        return sum(self.calls.get(site, 0) for site in sites)


# ---------------------------------------------------------------------- #
# What gets wrapped

#: Module-level functions, by the import sites the simulator calls them
#: through.  ``from x import f`` copies the binding, so each site is
#: patched on its own.
FUNCTION_SITES: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "generate_trace": ("workload.trace_gen", ("repro.experiments.scenarios",)),
    "iteration_time": ("perfmodel.iteration_time", ("repro.experiments.runner",)),
    "place_gpu_job": (
        "schedulers.place",
        (
            "repro.schedulers.drf",
            "repro.schedulers.fifo",
            "repro.core.multiarray",
        ),
    ),
    "place_cpu_job": (
        "schedulers.place",
        (
            "repro.schedulers.drf",
            "repro.schedulers.fifo",
            "repro.core.multiarray",
        ),
    ),
    # The benchmark's own digests serialize through the defining module;
    # the pool deserializes what its workers send.
    "run_result_to_dict": (
        "parallel.serialize",
        ("repro.metrics.serialize", "repro.parallel.pool"),
    ),
    "run_result_from_dict": ("parallel.serialize", ("repro.parallel.pool",)),
}

#: Methods: (module, class, method names, layer).  Each listed class
#: defines the method itself, so patching it there covers every caller.
_PASS_METHODS = ("schedule", "can_skip_pass")
METHOD_SITES: Tuple[Tuple[str, str, Tuple[str, ...], str], ...] = (
    ("repro.schedulers.fifo", "FifoScheduler", _PASS_METHODS, "schedulers.pass"),
    ("repro.schedulers.drf", "DrfScheduler", _PASS_METHODS, "schedulers.pass"),
    (
        "repro.core.multiarray",
        "MultiArrayScheduler",
        _PASS_METHODS,
        "schedulers.pass",
    ),
    (
        "repro.cluster.cluster",
        "Cluster",
        ("allocate", "release", "resize_cpus"),
        "cluster.mutation",
    ),
    (
        "repro.cluster.mbm",
        "BandwidthMonitor",
        ("register", "update_demand", "unregister", "set_cap"),
        "cluster.mbm",
    ),
    ("repro.core.tuning", "TuningSession", ("record",), "core.allocator"),
    (
        "repro.core.allocator",
        "AdaptiveCpuAllocator",
        ("on_job_started", "on_job_finished", "on_job_preempted", "on_job_failed"),
        "core.allocator",
    ),
    (
        "repro.health.tracker",
        "NodeHealthTracker",
        ("record_failure", "deprioritized_nodes", "quarantined_nodes"),
        "health",
    ),
    (
        "repro.metrics.collector",
        "MetricsCollector",
        ("sample_cluster",),
        "metrics.sample",
    ),
    ("repro.sim.engine", "Engine", ("run",), "sim.loop"),
)

#: Runner surface the eliminator acts through.  These are counted but not
#: timed: their cost stays in the eliminator tick's span.
RUNNER_COUNTED = (
    "monitor_active_node_ids",
    "throttle_cpu_job",
    "halve_cpu_job_cores",
    "preempt_job",
)

PLACE_SITES = tuple(
    f"{module}.{name}"
    for name in ("place_gpu_job", "place_cpu_job")
    for module in FUNCTION_SITES[name][1]
)
PASS_CLASSES = ("FifoScheduler", "DrfScheduler", "MultiArrayScheduler")
ELIMINATOR_ACTION_SITES = tuple(
    f"SimulationRunner.{name}" for name in RUNNER_COUNTED[1:]
)


def _observer(tracer: Tracer, site: str) -> Optional[Callable[[Any, float], None]]:
    """The result hook a site needs for its ratio metrics, if any."""
    values = tracer.values
    if site.endswith(".schedule") and site.split(".")[0] in PASS_CLASSES:
        pass_us = tracer.pass_us

        def on_pass(decisions: Any, elapsed: float) -> None:
            pass_us.append(elapsed * 1e6)
            values["decisions"] += len(decisions)
            if decisions:
                values["productive_passes"] += 1

        return on_pass
    if site.endswith(".can_skip_pass"):

        def on_gate(skip: Any, elapsed: float) -> None:
            if skip:
                values["skips"] += 1

        return on_gate
    if site in PLACE_SITES:

        def on_place(placement: Any, elapsed: float) -> None:
            if placement is not None:
                values["place_hits"] += 1

        return on_place
    if site == "Cluster.allocate":

        def on_allocate(allocation: Any, elapsed: float) -> None:
            if any(share.gpus for share in allocation.shares):
                values["gpu_starts"] += 1

        return on_allocate
    return None


def _runner_counter(
    tracer: Tracer, name: str, fn: Callable[..., Any]
) -> Callable[..., Any]:
    site = f"SimulationRunner.{name}"
    calls = tracer.calls
    values = tracer.values
    measure = name == "monitor_active_node_ids"

    def counted(*args: Any, **kwargs: Any) -> Any:
        result = fn(*args, **kwargs)
        calls[site] += 1
        if measure:
            values["nodes_scanned"] += len(result)
        return result

    return counted


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every entry point for the ``with`` block, then restore them."""
    undo: List[Tuple[Any, str, Any]] = []

    def patch(owner: Any, name: str, new: Any) -> None:
        undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    try:
        for name, (layer, modules) in FUNCTION_SITES.items():
            for module_name in modules:
                module = importlib.import_module(module_name)
                site = f"{module_name}.{name}"
                patch(
                    module,
                    name,
                    tracer.wrap(
                        layer, getattr(module, name), site, _observer(tracer, site)
                    ),
                )
        for module_name, class_name, names, layer in METHOD_SITES:
            cls = getattr(importlib.import_module(module_name), class_name)
            for name in names:
                site = f"{class_name}.{name}"
                patch(
                    cls,
                    name,
                    tracer.wrap(
                        layer, cls.__dict__[name], site, _observer(tracer, site)
                    ),
                )

        from repro.experiments.runner import SimulationRunner
        from repro.schedulers.placement import FreeState
        from repro.sim.engine import Engine

        for name in RUNNER_COUNTED:
            patch(
                SimulationRunner,
                name,
                _runner_counter(tracer, name, SimulationRunner.__dict__[name]),
            )
        patch(
            FreeState,
            "of",
            classmethod(
                tracer.wrap(
                    "schedulers.freestate",
                    FreeState.__dict__["of"].__func__,
                    "FreeState.of",
                )
            ),
        )

        schedule = Engine.__dict__["schedule"]
        recategorize = Engine.__dict__["recategorize_current_event"]
        calls = tracer.calls

        def traced_schedule(
            engine: Any, when: float, action: Callable[[], Any], **kwargs: Any
        ) -> Any:
            calls["Engine.schedule"] += 1
            return schedule(
                engine,
                when,
                tracer.event_action(action, kwargs.get("tag", "")),
                **kwargs,
            )

        def traced_recategorize(engine: Any, category: str) -> None:
            tracer.recategorize(category)
            recategorize(engine, category)

        patch(Engine, "schedule", traced_schedule)
        patch(Engine, "recategorize_current_event", traced_recategorize)

        from repro.sweep import supervisor

        run_supervised = supervisor.__dict__["run_supervised"]

        def counted_run_supervised(*args: Any, **kwargs: Any) -> Any:
            outcomes = run_supervised(*args, **kwargs)
            for outcome in outcomes:
                tracer.values["sweep_attempts"] += outcome.attempts
                tracer.values["sweep_retries"] += outcome.retries
            return outcomes

        patch(supervisor, "run_supervised", counted_run_supervised)
        yield tracer
    finally:
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)


# ---------------------------------------------------------------------- #
# Per-layer metrics


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (0 for no samples)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, runs: int) -> Dict[str, float]:
    """The per-layer metrics a traced set of ``runs`` simulations gives.

    Counts and seconds are means per simulated run; ratios and
    percentiles are taken over all of them.  Metrics that need more than
    the tracer (run results, the untraced twin, the sweep) are added by
    the caller.
    """
    t = tracer
    per = 1.0 / runs if runs else 0.0
    values = t.values
    pass_calls = t.sum_calls([f"{cls}.schedule" for cls in PASS_CLASSES])
    gate_calls = t.sum_calls([f"{cls}.can_skip_pass" for cls in PASS_CLASSES])
    place_calls = t.sum_calls(PLACE_SITES)
    iteration_calls = t.calls.get("repro.experiments.runner.iteration_time", 0)
    gpu_starts = values["gpu_starts"]
    nodes_scanned = values["nodes_scanned"]
    actions = t.sum_calls(ELIMINATOR_ACTION_SITES)
    metrics: Dict[str, float] = {
        "schedulers.pass_calls": pass_calls * per,
        "schedulers.skip_ratio": ratio(values["skips"], gate_calls),
        "schedulers.productive_pass_ratio": ratio(
            values["productive_passes"], pass_calls
        ),
        "schedulers.decisions": values["decisions"] * per,
        "schedulers.pass_self_s": t.self_s["schedulers.pass"] * per,
        "schedulers.pass_p50_us": percentile(t.pass_us, 50),
        "schedulers.pass_p99_us": percentile(t.pass_us, 99),
        "schedulers.freestate_calls": t.calls["FreeState.of"] * per,
        "schedulers.freestate_self_s": t.self_s["schedulers.freestate"] * per,
        "schedulers.place_calls": place_calls * per,
        "schedulers.place_self_s": t.self_s["schedulers.place"] * per,
        "schedulers.place_hit_ratio": ratio(values["place_hits"], place_calls),
        "perfmodel.iteration_time_calls": iteration_calls * per,
        "perfmodel.iteration_time_self_s": t.self_s["perfmodel.iteration_time"]
        * per,
        "perfmodel.calls_per_gpu_start": ratio(iteration_calls, gpu_starts),
    }
    for category in CATEGORIES:
        layer = "experiments." + category
        metrics[f"{layer}.count"] = t.calls[layer] * per
        metrics[f"{layer}.self_s"] = t.self_s[layer] * per
    metrics.update(
        {
            "core.allocator_probe_steps": t.calls["experiments.allocator-probe"]
            * per,
            "core.tuning_records": t.calls["TuningSession.record"] * per,
            "core.allocator_self_s": t.self_s["core.allocator"] * per,
            "core.eliminator_ticks": t.calls["experiments.eliminator-tick"] * per,
            "core.eliminator_nodes_scanned": nodes_scanned * per,
            "core.eliminator_actions": actions * per,
            "core.eliminator_action_ratio": ratio(actions, nodes_scanned),
            "cluster.mutations": t.sum_calls(
                [f"Cluster.{n}" for n in ("allocate", "release", "resize_cpus")]
            )
            * per,
            "cluster.mutation_self_s": t.self_s["cluster.mutation"] * per,
            "cluster.mbm_updates": t.sum_calls(
                [
                    f"BandwidthMonitor.{n}"
                    for n in ("register", "update_demand", "unregister", "set_cap")
                ]
            )
            * per,
            "cluster.mbm_self_s": t.self_s["cluster.mbm"] * per,
            "health.self_s": t.self_s["health"] * per,
            "health.deprioritized_calls": t.calls[
                "NodeHealthTracker.deprioritized_nodes"
            ]
            * per,
            "metrics.samples": t.calls["MetricsCollector.sample_cluster"] * per,
            "metrics.sample_self_s": t.self_s["metrics.sample"] * per,
            "sim.schedule_calls": t.calls["Engine.schedule"] * per,
            "sim.loop_self_s": t.self_s["sim.loop"] * per,
            "workload.trace_gen_s": t.self_s["workload.trace_gen"] * per,
            "cluster.build_s": t.self_s["cluster.build"] * per,
            "experiments.runner_init_s": t.self_s["experiments.runner_init"] * per,
        }
    )
    return metrics
