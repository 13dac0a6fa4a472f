"""The declared checkpoint schema at the load boundary.

Every value of a checkpoint is checked against its component's declared
type (:mod:`repro.sim.state`), and every job and node id against the
regenerated trace and cluster.  A malformed checkpoint fails at load
with a :class:`CheckpointError` naming the JSON path of the first value
that does not fit; it never restores into a run that then diverges.
"""

import copy
import json
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.checkpoint import CheckpointError, restore_run
from repro.sim.state import Fields, Rows, Stateful, Struct
from tests.checkpoint.test_restore import (
    _dumps,
    _faulted_spec,
    _plain_spec,
    _snapshot_at,
)


@lru_cache(maxsize=None)
def _coda_state():
    """The 4-node CODA snapshot at event 80: tracked CPU jobs are live."""
    return json.dumps(_snapshot_at(_plain_spec(), kill_at=80))


def _restore(state):
    return restore_run(_plain_spec(), state)


def _tracked_job(state):
    return sorted(state["scheduler"]["queues"]["tracked"])[0]


class TestLocatedLoadErrors:
    def test_wrong_typed_tracked_entry(self):
        state = json.loads(_coda_state())
        job_id = _tracked_job(state)
        state["scheduler"]["queues"]["tracked"][job_id] = 7
        with pytest.raises(CheckpointError) as raised:
            _restore(state)
        assert str(raised.value) == (
            f'state.scheduler.queues.tracked["{job_id}"]: '
            "expected [node id, int], got 7"
        )

    def test_missing_borrowed(self):
        state = json.loads(_coda_state())
        del state["scheduler"]["queues"]["borrowed"]
        with pytest.raises(CheckpointError) as raised:
            _restore(state)
        assert str(raised.value) == "state.scheduler.queues.borrowed: missing"

    def test_ghost_tracked_job(self):
        state = json.loads(_coda_state())
        state["scheduler"]["queues"]["tracked"]["cpu-999999"] = [0, 2]
        with pytest.raises(CheckpointError) as raised:
            _restore(state)
        assert str(raised.value) == (
            'state.scheduler.queues.tracked["cpu-999999"]: '
            "no job 'cpu-999999' in this run's trace"
        )

    def test_string_for_int(self):
        state = json.loads(_coda_state())
        state["runner"]["preemptions"] = "3"
        with pytest.raises(CheckpointError) as raised:
            _restore(state)
        assert str(raised.value) == (
            'state.runner.preemptions: expected int, got "3"'
        )

    def test_string_for_node_counter(self):
        state = json.loads(_coda_state())
        state["cluster"]["nodes"][0]["used_cpus"] = "x"
        with pytest.raises(CheckpointError) as raised:
            _restore(state)
        assert str(raised.value) == (
            'state.cluster.nodes[0].used_cpus: expected int, got "x"'
        )

    def test_bool_is_not_an_int(self):
        state = json.loads(_coda_state())
        state["engine"]["seq"] = True
        with pytest.raises(CheckpointError, match=r"^state\.engine\.seq: "):
            _restore(state)

    def test_ghost_node(self):
        state = json.loads(_coda_state())
        job_id = _tracked_job(state)
        state["scheduler"]["queues"]["tracked"][job_id][0] = 4
        with pytest.raises(CheckpointError) as raised:
            _restore(state)
        assert str(raised.value) == (
            f'state.scheduler.queues.tracked["{job_id}"][0]: '
            "no node 4 in this run's 4-node cluster"
        )

    def test_undeclared_key(self):
        state = json.loads(_coda_state())
        state["runner"]["preemption"] = 0
        with pytest.raises(
            CheckpointError,
            match=r"^state\.runner\.preemption: not a declared field$",
        ):
            _restore(state)


    def test_component_the_run_does_not_have(self):
        state = json.loads(_coda_state())
        state["faults"] = {"rng": {}, "injected": []}
        with pytest.raises(CheckpointError) as raised:
            _restore(state)
        assert str(raised.value) == "state.faults: not a component of this run"


class TestCollectorLoadErrors:
    """The metrics collector loads through its declaration too."""

    def _fails(self, mutate):
        state = json.loads(_coda_state())
        mutate(state["collector"])
        with pytest.raises(CheckpointError) as raised:
            _restore(state)
        return str(raised.value)

    def test_dropped_key(self):
        def drop(collector):
            del collector["faults"]["restarts"]

        assert self._fails(drop) == "state.collector.faults.restarts: missing"

    def test_string_for_int(self):
        def retype(collector):
            collector["throttle_events"] = "3"

        assert self._fails(retype) == (
            'state.collector.throttle_events: expected int, got "3"'
        )

    def test_undeclared_key(self):
        def add(collector):
            collector["bogus"] = 0

        assert self._fails(add) == "state.collector.bogus: not a declared field"

    def test_ghost_record_job(self):
        def ghost(collector):
            collector["records"][0]["job_id"] = "ghost-000001"

        assert self._fails(ghost) == (
            "state.collector.records[0].job_id: "
            "no job 'ghost-000001' in this run's trace"
        )

    def test_oversized_int(self):
        def oversize(collector):
            collector["records"][0]["tenant_id"] = 2**40

        assert self._fails(oversize).startswith("state.collector.records[0]: ")

    def test_truncated_series_point(self):
        def truncate(collector):
            collector["series"]["gpu_queue_depth"][0].pop()

        assert self._fails(truncate).startswith(
            "state.collector.series.gpu_queue_depth[0]: expected [float, int], got "
        )

    def test_series_off_the_shared_clock(self):
        def shift(collector):
            collector["series"]["hot_nodes"][-1][0] += 1.0

        assert self._fails(shift) == (
            "state.collector.series.hot_nodes: its times differ from the clock's"
        )

    def test_ghost_down_node(self):
        def ghost(collector):
            collector["faults"]["down_since"] = [[4, 0.0]]

        assert self._fails(ghost) == (
            "state.collector.faults.down_since[0][0]: "
            "no node 4 in this run's 4-node cluster"
        )


# --------------------------------------------------------------------- #
# Fuzzing the boundary


def _declared_keys():
    """Every JSON key any component declares as an object field, also a
    table row's (:class:`Fields`)."""
    keys = set()
    classes = [Stateful]
    while classes:
        cls = classes.pop()
        classes.extend(cls.__subclasses__())
        shapes = [getattr(cls, "STATE", None)]
        while shapes:
            shape = shapes.pop()
            if isinstance(shape, Struct):
                if not (shape.row or shape.bare):
                    keys |= shape.keys()
                shapes.extend(c for _, _, c in shape.fields)
            elif isinstance(shape, Rows):
                shapes.append(shape.row)
            elif isinstance(shape, Fields):
                keys |= set(shape.keys)
    return keys


DECLARED_KEYS = frozenset(_declared_keys())

#: Where node ids sit (``*`` is any key or index).
NODE_ID_PATHS = (
    ("cluster", "allocations", "*", "*", 0),
    ("cluster", "health", "records", "*key"),
    ("cluster", "health", "spans", "*", 0),
    ("scheduler", "queues", "tracked", "*", 0),
    ("scheduler", "queues", "borrowed", "*"),
    ("scheduler", "eliminator", "released_at", "*", 0),
    ("runner", "monitor_active", "*"),
    ("runner", "observable_since", "*", 0),
    ("collector", "faults", "down_since", "*", 0),
)

SPECS = {
    f"{kind}-{scheduler}": (make, scheduler)
    for kind, make in (("plain", _plain_spec), ("faulted", _faulted_spec))
    for scheduler in ("fifo", "drf", "coda")
}


@lru_cache(maxsize=None)
def _case(name):
    """(spec, canonical snapshot JSON, uninterrupted result, job ids)."""
    make, scheduler = SPECS[name]
    spec = make(scheduler)
    state = _snapshot_at(spec, kill_at=110)
    jobs = frozenset(
        job.job_id for job in spec.resolved_scenario().build_trace().jobs
    )
    return spec, json.dumps(state, sort_keys=True), _dumps(spec.execute()), jobs


def _walk(node, path=()):
    """(path, value) of every value under the declared state; the spec
    digest is not declared."""
    yield path, node
    if isinstance(node, dict):
        for key, value in node.items():
            if path or key != "spec":
                yield from _walk(value, path + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _walk(value, path + (index,))


def _matches(path, pattern):
    if len(path) != len(pattern):
        return False
    return all(p in ("*", "*key") or p == q for p, q in zip(pattern, path))


#: Mutations of one live event row, which must fail naming
#: ``state.engine.live`` (a dropped row) or the row itself.
ROW_KINDS = ("drop-row", "ghost-tag", "unknown-family")


def _ghost_tag(tag, jobs):
    """``tag`` with its first job id, else its first node id, pointing at
    one that does not exist; None for a tag without ids."""
    parts = tag.split(":")
    for index, part in enumerate(parts):
        if part in jobs:
            parts[index] = "ghost-000001"
            return ":".join(parts)
    for index, part in enumerate(parts):
        if part.isdecimal():
            parts[index] = "99"
            return ":".join(parts)
    return None


def _targets(state, jobs):
    """Mutation targets by kind: (path, how) pairs."""
    targets = {"drop": [], "retype": [], "ghost": [], "truncate": []}
    targets.update({kind: [] for kind in ROW_KINDS})
    for index, (*_, tag) in enumerate(state["engine"]["live"]):
        row = ("engine", "live", index)
        targets["drop-row"].append((row, "drop-row"))
        targets["unknown-family"].append((row + (3,), "unknown-family"))
        if _ghost_tag(tag, jobs) is not None:
            targets["ghost-tag"].append((row + (3,), "ghost-tag"))
    for path, value in _walk(state):
        if isinstance(value, dict):
            for key in value:
                if key in DECLARED_KEYS:
                    targets["drop"].append((path + (key,), "drop"))
                if key in jobs:
                    targets["ghost"].append((path + (key,), "rename"))
        elif isinstance(value, list):
            if value and len({type(item) for item in value}) > 1:
                targets["truncate"].append((path, "truncate"))
        else:
            targets["retype"].append((path, "retype"))
            if isinstance(value, str) and value in jobs:
                targets["ghost"].append((path, "ghost-job"))
        for pattern in NODE_ID_PATHS:
            if _matches(path, pattern):
                how = "rename" if pattern[-1] == "*key" else "ghost-node"
                targets["ghost"].append((path, how))
    return targets


def _retyped(value):
    """``value`` under another JSON type, and one a bare coercion such as
    ``int("10")`` would turn into a different valid value."""
    if isinstance(value, bool):
        return int(not value)
    if isinstance(value, int):
        return str(value + 7)
    if isinstance(value, float):
        return str(value + 7.5) if value == value and abs(value) < 1e300 else "7.5"
    if value is None:
        return "x"
    return [value]


def _mutate(state, path, how, jobs):
    *parents, last = path
    holder = state
    for step in parents:
        holder = holder[step]
    if how in ("drop", "drop-row"):
        del holder[last]
    elif how == "ghost-tag":
        holder[last] = _ghost_tag(holder[last], jobs)
    elif how == "unknown-family":
        holder[last] = "no-such-timer:" + holder[last]
    elif how == "truncate":
        holder[last].pop()
    elif how == "retype":
        holder[last] = _retyped(holder[last])
    elif how == "ghost-job":
        holder[last] = "ghost-000001"
    elif how == "ghost-node":
        holder[last] = 99
    else:  # rename a dict key to a job or node that does not exist
        ghost = "99" if last.isdigit() else "ghost-000001"
        holder[ghost] = holder.pop(last)


@settings(
    max_examples=260,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_a_mutated_checkpoint_fails_located_or_resumes_identically(data):
    """Drop a declared key, change a leaf's type, point an id at a job or
    node that does not exist, truncate a positional row, or drop a live
    event row, put a ghost id in its tag or give it an unknown family:
    the restore either raises a :class:`CheckpointError` naming a JSON
    path under ``state`` (the live row for a row mutation) or resumes
    byte-identical to the uninterrupted run."""
    name = data.draw(st.sampled_from(sorted(SPECS)), label="case")
    spec, canonical, baseline, jobs = _case(name)
    state = json.loads(canonical)
    targets = _targets(state, jobs)
    kind = data.draw(
        st.sampled_from([kind for kind in sorted(targets) if targets[kind]]),
        label="kind",
    )
    path, how = data.draw(st.sampled_from(targets[kind]), label="target")
    _check(spec, state, baseline, path, how, jobs)


def _check(spec, state, baseline, path, how, jobs):
    """Restore ``state`` mutated at ``path``: it fails located, or the
    resumed run matches the uninterrupted one."""
    mutated = copy.deepcopy(state)
    _mutate(mutated, path, how, jobs)
    where = "state."
    if how in ROW_KINDS:
        where = "state.engine.live" + ("" if how == "drop-row" else f"[{path[2]}]")
    try:
        runner = restore_run(spec, mutated)
    except CheckpointError as error:
        assert str(error).startswith(where), (str(error), path, how)
        return
    result = runner.run(until=spec.resolved_scenario().horizon_s)
    assert _dumps(result) == baseline, (path, how)


def _position(path):
    """``path`` with every key and index that is not a declared field
    name generalized: one position per declared leaf."""
    return tuple(step if step in DECLARED_KEYS else "*" for step in path)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_every_declared_leaf_position_rejects_a_retype(name):
    """The fuzz samples; this retypes one leaf at every declared position,
    so a single field loosened to a bare coercion cannot slip through."""
    spec, canonical, baseline, jobs = _case(name)
    state = json.loads(canonical)
    positions = {}
    for path, how in _targets(state, jobs)["retype"]:
        positions.setdefault(_position(path), (path, how))
    for path, how in positions.values():
        _check(spec, state, baseline, path, how, jobs)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_every_live_row_mutation_fails_at_its_row(name):
    """The fuzz samples; this drops every live event row, and gives every
    row a ghost id and an unknown family, one at a time."""
    spec, canonical, baseline, jobs = _case(name)
    state = json.loads(canonical)
    targets = _targets(state, jobs)
    for kind in ROW_KINDS:
        for path, how in targets[kind]:
            _check(spec, state, baseline, path, how, jobs)


def test_every_mutation_kind_has_targets():
    """The fuzz above reaches every kind of mutation on every case."""
    for name in SPECS:
        _, canonical, _, jobs = _case(name)
        targets = _targets(json.loads(canonical), jobs)
        counts = {kind: len(found) for kind, found in targets.items()}
        assert all(counts.values()), (name, counts)
