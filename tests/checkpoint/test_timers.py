"""Declared timer families at the checkpoint boundary.

Every tagged event belongs to a family declared once
(:class:`repro.sim.engine.Timer`) and bound on the engine to its owner.
A restore decodes each live row through its family, re-arms it, and
checks that every restored owner finds the events it requires: a live
row dropped from a checkpoint fails loudly instead of resuming a run that
silently diverges.
"""

import json
from functools import lru_cache

import pytest

from repro.checkpoint import CheckpointError, restore_run
from repro.sim.engine import Engine, Timer
from repro.sim.state import Refs, _Load
from tests.checkpoint.test_restore import (
    _dumps,
    _faulted_spec,
    _plain_spec,
    _snapshot_at,
)

FAMILIES = (
    "arrival",
    "sample",
    "schedule-pass",
    "gpu-done",
    "cpu-done",
    "straggler-end",
    "quarantine-end",
    "requeue",
    "profile",
    "eliminator-tick",
    "fault:crash",
    "fault:recover",
    "fault:gpu",
    "fault:gpu-repair",
    "fault:mbm",
    "fault:straggler",
)

#: Live rows no restored state requires, so dropping one resumes a run
#: that diverges (a stale heal only counts one event more).  Every other
#: row is required.
EXEMPT = {
    "straggler-end": "runner state keeps neither straggle times nor "
    "per-job counts: a heal is required only while its record is still "
    "slowed, and then one per incarnation; a stale heal (the job since "
    "finished, restarted or healed) and a second heal of one incarnation "
    "are not derivable",
    "quarantine-end": "an expiry due at the restored instant may have "
    "fired already",
}

#: Kill points (fired events) of the faulted CODA run, among them the
#: first at which each late family is live: fault:gpu-repair 3,
#: fault:recover 15, quarantine-end 92, profile 116, straggler-end 124,
#: requeue 160.
KILL_POINTS = (3, 15, 40, 92, 116, 124, 160, 250)

SPECS = {
    f"{kind}-{scheduler}": (make, scheduler)
    for kind, make in (("plain", _plain_spec), ("faulted", _faulted_spec))
    for scheduler in ("fifo", "drf", "coda")
}


def _family(tag):
    return next(
        name for name in sorted(FAMILIES, key=len, reverse=True)
        if tag == name or tag.startswith(name + ":")
    )


@lru_cache(maxsize=None)
def _spec(name):
    make, scheduler = SPECS[name]
    return make(scheduler)


@lru_cache(maxsize=None)
def _baseline(name):
    return _dumps(_spec(name).execute())


@lru_cache(maxsize=None)
def _state(name, kill_at):
    return json.dumps(_snapshot_at(_spec(name), kill_at))


def _first_live(family):
    """(kill point, row index) of the family's first live row in the
    faulted CODA run."""
    for kill_at in KILL_POINTS:
        live = json.loads(_state("faulted-coda", kill_at))["engine"]["live"]
        for index, row in enumerate(live):
            if _family(row[3]) == family:
                return kill_at, index
    raise AssertionError(f"{family} is never live")


@pytest.mark.parametrize("family", FAMILIES)
def test_dropping_a_live_row_fails_loudly(family):
    """Delete the family's first live row: the restore names
    ``state.engine.live`` and the owner left without it."""
    kill_at, index = _first_live(family)
    state = json.loads(_state("faulted-coda", kill_at))
    tag = state["engine"]["live"].pop(index)[3]
    with pytest.raises(CheckpointError) as raised:
        restore_run(_spec("faulted-coda"), state)
    message = str(raised.value)
    assert message.startswith("state.engine.live: restore left "), message
    for part in tag.split(":")[len(family.split(":")):][:2]:
        assert part in message, (tag, message)


def test_the_table_covers_the_simulator():
    """Every live row of every policy, clean and faulted, belongs to a
    declared family, each of the 16 is live somewhere, and a resume from
    the first snapshot holding each family is byte-identical."""
    first = {}
    for name in sorted(SPECS):
        points = KILL_POINTS if name.startswith("faulted") else (40, 110)
        for kill_at in points:
            state = json.loads(_state(name, kill_at))
            declared = restore_run(_spec(name), json.loads(_state(name, kill_at)))
            for *_, tag in state["engine"]["live"]:
                assert declared.engine._family_of(tag) is not None, tag
                first.setdefault(_family(tag), (name, kill_at))
    assert sorted(first) == sorted(FAMILIES)
    for name, kill_at in sorted(set(first.values())):
        runner = restore_run(_spec(name), json.loads(_state(name, kill_at)))
        result = runner.run(until=_spec(name).resolved_scenario().horizon_s)
        assert _dumps(result) == _baseline(name), (name, kill_at)


@pytest.mark.parametrize("name", ["faulted-fifo", "faulted-drf", "faulted-coda"])
def test_only_exempt_rows_are_unrequired(name):
    """White-box: every live row some restored owner does not require is
    of an exempt kind, for the reason :data:`EXEMPT` gives."""
    spec = _spec(name)
    trace = spec.resolved_scenario().build_trace()
    for kill_at in (60, 140, 150, 280, 290, 310, 610):
        state = json.loads(_state(name, kill_at))
        runner = restore_run(spec, json.loads(_state(name, kill_at)))
        engine = runner.engine
        refs = Refs({job.job_id: job for job in trace.jobs}, len(runner.cluster.nodes))
        required = {
            family.timer.name: set(family.requires(refs))
            for family in engine._timers.values()
        }
        keys = []
        for *_, tag in state["engine"]["live"]:
            timer = engine._family_of(tag).timer
            values = timer.decode(tag, "tag", _Load(refs))
            key = tuple(arg.dump(v) for arg, v in zip(timer.args, values))
            keys.append((timer.name, key))
        for family, key in keys:
            if any(key[: len(need)] == need for need in required[family]):
                continue
            assert family in EXEMPT, (kill_at, key)
            if family == "straggler-end":
                job_id, incarnation, _ = key
                record = runner.progress.running.get(job_id)
                assert (
                    runner._cpu_incarnation.get(job_id) != incarnation
                    or record is None
                    or record.straggle_factor == 1.0
                ), key
            else:
                assert runner.health.quarantine_until(key[0]) == engine.now, key


class TestDeclaration:
    def test_arming_an_undeclared_family_raises_where_it_is_armed(self):
        runner = _spec("faulted-coda").build_runner()
        with pytest.raises(ValueError, match="'bogus' is not declared"):
            runner.engine.arm(Timer("bogus"), 1.0)
        with pytest.raises(ValueError, match="'requeue' is not declared"):
            Engine().arm(Timer("requeue"), 1.0)

    def test_a_family_name_is_declared_once(self):
        engine = Engine()
        engine.declare(Timer("x"), print)
        with pytest.raises(ValueError, match="already declared"):
            engine.declare(Timer("x"), print)

    def test_a_family_arms_its_tag_and_priority(self):
        from repro.sim.state import INT, NODE_ID

        fired = []
        engine = Engine()
        repair = Timer("fault:gpu-repair", NODE_ID, INT, priority=0)
        engine.declare(repair, lambda node, gpu: fired.append((node, gpu)))
        handle = engine.arm(repair, 2.0, 3, 1)
        assert handle.tag == "fault:gpu-repair:3:1"
        assert engine.run() == 1 and fired == [(3, 1)]

    def test_a_detached_engine_drops_its_table(self):
        engine = Engine()
        timer = Timer("x")
        engine.declare(timer, print)
        engine.detach()
        with pytest.raises(ValueError, match="not declared"):
            engine.arm(timer, 1.0)

    @pytest.mark.parametrize(
        "tag, error",
        [
            ("bogus:1", "no timer family declared for 'bogus:1'"),
            ("fault:gpu-repair:1", "expected tag 'fault:gpu-repair:<node id>:<int>'"),
            ("fault:gpu-repair:1:01", "expected int written as a string"),
            ("sample:1", "expected tag 'sample'"),
            ("quarantine-end:4", "no node 4 in this run's 4-node cluster"),
            ("arrival:ghost-000001", "no job 'ghost-000001' in this run's trace"),
        ],
    )
    def test_a_malformed_tag_fails_at_its_row(self, tag, error):
        state = json.loads(_state("faulted-coda", 40))
        state["engine"]["live"][5][3] = tag
        with pytest.raises(CheckpointError) as raised:
            restore_run(_spec("faulted-coda"), state)
        assert str(raised.value).startswith("state.engine.live[5][3]: ")
        assert error in str(raised.value)

    def test_a_row_at_another_priority_fails_at_its_row(self):
        state = json.loads(_state("faulted-coda", 40))
        live = state["engine"]["live"]
        index = next(i for i, row in enumerate(live) if row[3] == "sample")
        live[index][1] = 0
        with pytest.raises(CheckpointError) as raised:
            restore_run(_spec("faulted-coda"), state)
        assert str(raised.value) == (
            f"state.engine.live[{index}][1]: expected 'sample' priority 1, got 0"
        )
