"""No forgotten fields: what a run changes, a restore brings back.

Runs each policy partway with faults and node health, then compares
``vars()`` of every checkpointed component (every :class:`Stateful`
reachable from the runner) with a freshly built runner.  Every attribute
the run changed must come back from the checkpoint, through a declared
field or the component's load hook, unless :data:`NOT_CARRIED` names it
with the reason it may differ.  A field left out of a declaration shows
up here as an attribute that changed but did not come back.
"""

import dataclasses
import enum
import json
import math
import random
from array import array
from collections import deque

import pytest

from repro.checkpoint import restore_run, snapshot_run
from repro.sim.events import EventHandle
from repro.sim.state import Stateful
from repro.workload.job import Job
from tests.checkpoint.test_restore import _faulted_spec

#: Kill points with GPU and CPU jobs running after node quarantines.  At
#: event 320 of the CODA run a GPU job is also tuning, a CPU job borrows
#: reserved cores, and two profiling sessions have died with their nodes
#: (degraded-mode strikes).
KILL_AT = {"fifo": 300, "drf": 300, "coda": 320}

#: (class, attribute) -> why a restore may leave it different.
NOT_CARRIED = {
    ("Engine", "_queue"): "the heap holds closures: live events are "
    "re-armed by tag, and fired or cancelled entries are not carried",
    ("Engine", "event_category"): "per-event scratch: an observer reads "
    "and resets it right after the event that set it",
    ("Cluster", "free_snapshot_cache"): "placement memo, dropped on load",
    ("Cluster", "_generation"): "only its value is carried; the load "
    "bumps it coarse, which forces a full snapshot rebuild",
    ("Node", "generation"): "the cluster's shared counter, as above",
    ("NodeHealthTracker", "_deadlines"): "deadline index, rebuilt from the "
    "records by _reindex (stale entries are not carried)",
    ("NodeHealthTracker", "_strike_times"): "deadline index, as above",
    ("NodeHealthTracker", "drained_now"): "deadline index, as above",
    ("NodeHealthTracker", "_quarantined_sorted"): "sorted view, rebuilt "
    "on the next query",
    ("NodeHealthTracker", "_flagged_sorted"): "sorted view, as above",
    ("FifoScheduler", "_gate"): "every group is re-armed by mark_all",
    ("DrfScheduler", "_gate"): "every group is re-armed by mark_all",
    ("CodaScheduler", "_gate"): "every group is re-armed by mark_all",
    ("CodaScheduler", "_layout"): "a pure function of the cluster "
    "config, rebuilt on the first pass",
    ("CodaScheduler", "_topology"): "rebuilt with the layout",
    ("CodaScheduler", "_cpu_capacity"): "rebuilt with the layout",
    ("CodaScheduler", "_biggest_node_cores"): "rebuilt with the layout",
    ("CodaScheduler", "_place_memo"): "per-pass memo, reset every pass",
    ("TenantQueues", "_gate"): "the policy's gate, re-armed by mark_all",
    ("TenantQueues", "_heap"): "share heap, rebuilt from the queues at "
    "the next pass",
    ("TenantQueues", "_totals"): "set at the top of every pass",
    ("TenantQueues", "_blocked"): "cleared at the top of every pass",
    ("Progress", "_speed_memo"): "content-keyed pricing memo",
    ("Progress", "_node_key_memo"): "reset on load: every node's first "
    "refresh reprices its trainers, which finds their loaded speeds",
}


def _shape(value, seen):
    """A comparable picture of ``value``; components stand for
    themselves (each is compared on its own)."""
    if isinstance(value, Stateful):
        return ("component", type(value).__name__)
    if isinstance(value, Job):
        return ("job", value.job_id)
    if isinstance(value, EventHandle):
        return ("timer", value.time, value.tag, value.cancelled)
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, float):
        return "nan" if math.isnan(value) else value
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, random.Random):
        return ("random", value.getstate())
    if isinstance(value, (list, tuple, deque, array)):
        return [_shape(item, seen) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(repr(_shape(item, seen)) for item in value)
    if isinstance(value, dict):
        return sorted(
            (repr(_shape(key, seen)), repr(_shape(item, seen)))
            for key, item in value.items()
        )
    if callable(value):
        return ("callable",)
    if id(value) in seen:
        return ("seen", type(value).__name__)
    seen.add(id(value))
    plain = dataclasses.is_dataclass(value) or hasattr(type(value), "__slots__")
    if not plain or not type(value).__module__.startswith("repro."):
        return ("object", type(value).__name__)
    attrs = _attrs(value).items()
    return type(value).__name__, [(name, _shape(v, seen)) for name, v in attrs]


def _components(root):
    """(path, component) of every Stateful reachable from ``root``, each
    under its shortest path, not through what :data:`NOT_CARRIED` lists."""
    found = {}
    reached = set()
    queue = deque([("runner", root)])
    while queue:
        path, value = queue.popleft()
        if isinstance(value, Stateful):
            if id(value) in reached:
                continue
            reached.add(id(value))
            found[path] = value
            name = type(value).__name__
            children = [
                (attr, child)
                for attr, child in _attrs(value).items()
                if (name, attr) not in NOT_CARRIED
            ]
        elif isinstance(value, dict):
            children = value.items()
        elif isinstance(value, (list, tuple, deque)):
            children = enumerate(value)
        elif dataclasses.is_dataclass(value) and not isinstance(value, (Job, type)):
            children = _attrs(value).items()
        else:
            continue
        for key, child in children:
            queue.append((f"{path}.{key}", child))
    return found


def _attrs(value):
    """``vars(value)``, also for slotted classes."""
    if hasattr(value, "__dict__"):
        return dict(vars(value))
    if dataclasses.is_dataclass(value):
        names = [field.name for field in dataclasses.fields(value)]
    else:
        names = type(value).__slots__
    return {name: getattr(value, name) for name in names}


def _unrestored(scheduler):
    """(component path, attribute) pairs the run changed that did not
    come back from its checkpoint, and the restored component types."""
    spec = _faulted_spec(scheduler)
    run = spec.build_runner()
    run.enable_sampling()
    run.engine.run(max_events=KILL_AT[scheduler])
    state = json.loads(json.dumps(snapshot_run(run, spec)))
    fresh = spec.build_runner()
    restored = restore_run(spec, state)
    run_parts, fresh_parts = _components(run), _components(fresh)
    restored_parts = _components(restored)
    missing = []
    for path, component in run_parts.items():
        name = type(component).__name__
        before = _attrs(fresh_parts[path]) if path in fresh_parts else {}
        after = _attrs(restored_parts[path]) if path in restored_parts else {}
        for attr, value in _attrs(component).items():
            if (name, attr) in NOT_CARRIED:
                continue
            now = _shape(value, set())
            if attr in before and _shape(before[attr], set()) == now:
                continue
            if attr not in after or _shape(after[attr], set()) != now:
                missing.append((path, attr))
    kinds = {type(component).__name__ for component in restored_parts.values()}
    return missing, kinds


@pytest.mark.parametrize("scheduler", ["fifo", "drf", "coda"])
def test_every_changed_attribute_comes_back(scheduler):
    missing, kinds = _unrestored(scheduler)
    assert missing == []
    assert {"Engine", "Cluster", "Node", "Gpu", "BandwidthMonitor"} <= kinds
    assert {"MbaController", "NodeHealthTracker", "FaultInjector"} <= kinds
    assert {"RngRegistry", "SimulationRunner", "Progress"} <= kinds
    assert {"_RunningGpu", "_RunningCpu"} <= kinds
    assert {"MetricsCollector", "JobTable"} <= kinds
    assert {"FaultStats", "AuditStats"} <= kinds


def test_the_coda_run_reaches_every_component():
    _, kinds = _unrestored("coda")
    assert {"CodaScheduler", "TenantQueues", "UsageLedger"} <= kinds
    assert {"AdaptiveCpuAllocator", "TuningSession", "TenantHistory"} <= kinds
    assert "ContentionEliminator" in kinds
