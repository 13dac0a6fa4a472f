"""The declared checkpoint schema at the load boundary.

Every value of a checkpoint is checked against its component's declared
type (:mod:`repro.sim.state`), and every job and node id against the
regenerated trace and cluster.  A malformed checkpoint fails at load
with a :class:`CheckpointError` naming the JSON path of the first value
that does not fit; it never restores into a run that then diverges.
"""

import base64
import copy
import json
import re
from array import array
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.checkpoint import CheckpointError, restore_run
from repro.sim.state import Columns, Fields, Packed, Stateful, Struct, decode
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


def _values(column):
    """The values of a packed column."""
    return decode(Packed("bhid", nan=True), column, "column").tolist()


def _packed(values, typecode):
    return Packed(typecode).dump(array(typecode, values))


def _set(group, key, row, value):
    """Write ``value`` at ``row`` of the packed column ``group[key]``."""
    values = _values(group[key])
    values[row] = value
    group[key] = _packed(values, "d" if group[key][0] == "d" else "i")


def _with_id(records, row, job_id):
    """``records`` with the id at ``row`` replaced by ``job_id``."""
    ends = _values(records["id_ends"])
    start = ends[row - 1] if row else 0
    text = records["ids"]
    records["ids"] = text[:start] + job_id + text[ends[row]:]
    shift = len(job_id) - (ends[row] - start)
    ends[row:] = [end + shift for end in ends[row:]]
    records["id_ends"] = _packed(ends, "i")


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
        state["faults"] = {"rng": {}}
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
            _with_id(collector["records"], 0, "ghost-000001")

        assert self._fails(ghost) == (
            "state.collector.records.ids[0]: "
            "no job 'ghost-000001' in this run's trace"
        )

    def test_oversized_int(self):
        # No int column is wider than 4 bytes: an 8-byte one is refused
        # whole, before any of its values is read.
        def oversize(collector):
            records = collector["records"]
            tenants = _values(records["tenant_id"])
            tenants[0] = 2**40
            wide = array("q", tenants).tobytes()
            records["tenant_id"] = "q:" + base64.b64encode(wide).decode("ascii")

        assert self._fails(oversize).startswith(
            'state.collector.records.tenant_id: expected packed column of "b" or '
        )

    def test_truncated_series_point(self):
        def truncate(collector):
            series = collector["series"]
            series["gpu_queue_depth"] = _packed(
                _values(series["gpu_queue_depth"])[:-1], "i"
            )

        rows = len(self._times())
        assert rows and self._fails(truncate) == (
            f"state.collector.series.gpu_queue_depth[{rows - 1}]: missing"
        )

    def test_series_off_the_shared_clock(self):
        def extend(collector):
            series = collector["series"]
            series["hot_nodes"] = _packed(_values(series["hot_nodes"]) + [0], "i")

        rows = len(self._times())
        assert self._fails(extend) == (
            f"state.collector.series.hot_nodes[{rows}]: beyond the {rows} rows"
        )

    def _times(self):
        return _values(json.loads(_coda_state())["collector"]["series"]["times"])

    def test_ghost_down_node(self):
        def ghost(collector):
            collector["faults"]["down_since"] = [[4, 0.0]]

        assert self._fails(ghost) == (
            "state.collector.faults.down_since[0][0]: "
            "no node 4 in this run's 4-node cluster"
        )


class TestColumnChecks:
    """Each check a packed column gets at load, failing at its element, on
    a DRF snapshot whose job table holds CPU and GPU jobs."""

    def _state(self):
        return json.loads(_case("plain-drf")[1])

    def _fails(self, mutate):
        state = self._state()
        mutate(state["collector"]["records"], state["collector"]["series"])
        with pytest.raises(CheckpointError) as raised:
            restore_run(_case("plain-drf")[0], state)
        return str(raised.value)

    def _rows(self, kind):
        records = self._state()["collector"]["records"]
        return [row for row, k in enumerate(_values(records["kind"])) if k == kind]

    def test_a_float_column_takes_only_float_bytes(self):
        def retype(records, series):
            zeros = [0] * len(_values(series["times"]))
            series["gpu_utilization"] = _packed(zeros, "i")

        assert self._fails(retype).startswith(
            'state.collector.series.gpu_utilization: expected packed column of "d", '
        )

    def test_bytes_that_are_not_base64(self):
        def garble(records, series):
            records["gpus"] = "b:not base64!"

        assert self._fails(garble) == (
            'state.collector.records.gpus: expected packed column of "b" or "h" '
            'or "i", got "b:not base64!"'
        )

    def test_bytes_that_are_not_whole_elements(self):
        def cut(records, series):
            records["submit_time"] = "d:AAAA"

        assert self._fails(cut) == (
            "state.collector.records.submit_time: 3 bytes of 8-byte elements"
        )

    def test_nan_only_in_a_sentinel_column(self):
        def unset(records, series):
            _set(records, "submit_time", 2, float("nan"))

        assert self._fails(unset) == "state.collector.records.submit_time[2]: NaN"

    def test_final_cores_below_the_unset_sentinel(self):
        def below(records, series):
            _set(records, "final_cpus", 1, -2)

        assert self._fails(below) == (
            "state.collector.records.final_cpus[1]: -2 is below -1"
        )

    def test_kind_code_out_of_range(self):
        def bad_kind(records, series):
            _set(records, "kind", 0, 2)

        assert self._fails(bad_kind) == "state.collector.records.kind[0]: 2 is above 1"

    def test_label_code_below_zero(self):
        row = self._rows(1)[0]

        def negative(records, series):
            _set(records, "model", row, -1)

        assert self._fails(negative) == (
            f"state.collector.records.model[{row}]: -1 is below 0"
        )

    def test_label_code_out_of_range(self):
        row = self._rows(1)[0]
        labels = len(self._state()["collector"]["records"]["labels"])

        def bad_label(records, series):
            _set(records, "setup_label", row, labels + 1)

        assert self._fails(bad_label) == (
            f"state.collector.records.setup_label[{row}]: "
            f"{labels + 1} is above {labels}"
        )

    @pytest.mark.parametrize("kind", [0, 1], ids=["cpu", "gpu"])
    def test_a_model_exactly_on_gpu_rows(self, kind):
        row = self._rows(kind)[0]

        def swap(records, series):
            _set(records, "model", row, 1 - kind)

        assert self._fails(swap) == (
            f"state.collector.records.model[{row}]: "
            "a GPU job has a model and a setup, a CPU job neither"
        )

    def test_labels_are_strings(self):
        labels = len(self._state()["collector"]["records"]["labels"])

        def unnamed(records, series):
            records["labels"].append(None)

        assert self._fails(unnamed) == (
            f"state.collector.records.labels[{labels}]: expected str, got null"
        )

    def test_an_id_listed_twice(self):
        records = self._state()["collector"]["records"]
        first = records["ids"][: _values(records["id_ends"])[0]]

        def twice(records, series):
            _with_id(records, 1, first)

        assert self._fails(twice) == (
            f"state.collector.records.ids[1]: job '{first}' twice"
        )

    def test_id_ends_that_go_back(self):
        def back(records, series):
            _set(records, "id_ends", 1, 0)

        assert self._fails(back) == (
            "state.collector.records.id_ends[1]: 0 is before its start"
        )

    def test_id_text_longer_than_its_ids(self):
        def longer(records, series):
            records["ids"] += "x"

        length = len(self._state()["collector"]["records"]["ids"])
        assert self._fails(longer) == (
            f"state.collector.records.ids: {length + 1} characters, "
            f"but its ids end at {length}"
        )

    def test_free_gpu_fraction_above_one(self):
        def over(records, series):
            _set(series, "free_gpu_fraction", 0, 1.5)

        assert self._fails(over) == (
            "state.collector.series.free_gpu_fraction[0]: 1.5 is above 1.0"
        )


# --------------------------------------------------------------------- #
# Fuzzing the boundary


def _declarations():
    """Every JSON key any component declares as an object field (also a
    row's, :class:`Fields`, and a column's, :class:`Columns`), and the
    bounds of the packed columns by key: lower, then upper."""
    keys, lows, highs = set(), {}, {}
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
            elif isinstance(shape, Columns):
                keys |= set(shape.fields)
                for key in shape.columns:
                    column = shape.fields[key]
                    if column.low is not None:
                        lows[key] = column.low
                    if column.high is not None:
                        highs[key] = column.high
            elif isinstance(shape, Fields):
                keys |= set(shape.keys)
    return frozenset(keys), lows, highs


DECLARED_KEYS, LOW_BOUNDS, HIGH_BOUNDS = _declarations()

#: The job table's label code columns: their bound is its label count.
LABEL_COLUMNS = ("model", "setup_label")

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

#: Mutations of the packed columns: cut one short by its last element
#: (which fails in its group), put a value one past its upper bound or one
#: under its lower bound at row 0, or splice a ghost id into the id text
#: at row 0 (each failing there).
COLUMN_HOWS = ("cut", "code", "below", "ghost-id")

#: A packed column, as :class:`Packed` writes it.
_PACKED = re.compile(r"[bhid]:[A-Za-z0-9+/]*=*")


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
    targets = {"drop": [], "retype": [], "ghost": [], "truncate": [], "column": []}
    targets.update({kind: [] for kind in ROW_KINDS})
    for index, (*_, tag) in enumerate(state["engine"]["live"]):
        row = ("engine", "live", index)
        targets["drop-row"].append((row, "drop-row"))
        targets["unknown-family"].append((row + (3,), "unknown-family"))
        if _ghost_tag(tag, jobs) is not None:
            targets["ghost-tag"].append((row + (3,), "ghost-tag"))
    for path, value in _walk(state):
        if isinstance(value, dict) and "id_ends" in value and value["ids"]:
            targets["column"].append((path, "ghost-id"))
        if isinstance(value, str) and _PACKED.fullmatch(value) and _values(value):
            targets["column"].append((path, "cut"))
            if path[-1] in HIGH_BOUNDS or path[-1] in LABEL_COLUMNS:
                targets["column"].append((path, "code"))
            if path[-1] in LOW_BOUNDS:
                targets["column"].append((path, "below"))
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
    elif how == "cut":
        typecode = holder[last][0]
        holder[last] = _packed(_values(holder[last])[:-1], typecode)
    elif how == "code":
        labels = last in LABEL_COLUMNS
        bound = len(holder["labels"]) if labels else HIGH_BOUNDS[last]
        _set(holder, last, 0, bound + 1)
    elif how == "below":
        _set(holder, last, 0, LOW_BOUNDS[last] - 1)
    elif how == "ghost-id":
        _with_id(holder[last], 0, "ghost-000001")
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
    node that does not exist, truncate a positional row, drop a live
    event row, put a ghost id in its tag or give it an unknown family, or
    mutate a packed column: the restore either raises a
    :class:`CheckpointError` naming a JSON path under ``state`` (the live
    row for a row mutation, the column for a column one) or resumes
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
    elif how in COLUMN_HOWS:
        dotted = "state." + ".".join(map(str, path))
        where = {
            "cut": dotted.rsplit(".", 1)[0] + ".",
            "code": dotted + "[0]: ",
            "below": dotted + "[0]: ",
            "ghost-id": dotted + ".ids[0]: no job 'ghost-000001'",
        }[how]
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


@pytest.mark.parametrize("name", sorted(SPECS))
def test_every_column_mutation_fails_at_its_column(name):
    """The fuzz samples; this cuts every packed column short, puts every
    bounded column out of range and splices a ghost id into the id text,
    one at a time."""
    spec, canonical, baseline, jobs = _case(name)
    state = json.loads(canonical)
    for path, how in _targets(state, jobs)["column"]:
        _check(spec, state, baseline, path, how, jobs)


def test_every_mutation_kind_has_targets():
    """The fuzz above reaches every kind of mutation on every case, and
    every column mutation."""
    for name in SPECS:
        _, canonical, _, jobs = _case(name)
        targets = _targets(json.loads(canonical), jobs)
        counts = {kind: len(found) for kind, found in targets.items()}
        assert all(counts.values()), (name, counts)
        hows = {how for _, how in targets["column"]}
        assert hows == set(COLUMN_HOWS), (name, hows)
