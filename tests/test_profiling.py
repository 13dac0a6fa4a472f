"""The ``--profile`` observer: host time and event counts per category.

Profiling must be observational only: attaching a profiler may never
change what a run computes.
"""

import pytest

from repro.profiling import Profiler
from repro.sim.engine import Engine


class TestProfiler:
    def test_counters_accumulate(self):
        profiler = Profiler()
        profiler.count("events")
        profiler.count("events", 4)
        assert profiler.counters["events"] == 5

    def test_section_accumulates_time(self):
        # Two events of one category book into one timer.
        engine = Engine()
        profiler = Profiler()
        profiler.attach(engine)
        engine.schedule(1.0, lambda: None, tag="work:a")
        engine.schedule(2.0, lambda: None, tag="work:b")
        engine.run()
        assert set(profiler.timers) == {"work"}
        assert profiler.timers["work"] >= 0.0
        assert profiler.counters == {"work": 2}

    def test_add_time_and_total(self):
        profiler = Profiler()
        profiler.add_time("a", 1.0)
        profiler.add_time("b", 3.0)
        profiler.add_time("a", 1.0)
        assert profiler.total_timed_s() == 5.0

    def test_time_shares_sorted_largest_first(self):
        profiler = Profiler()
        profiler.add_time("small", 1.0)
        profiler.add_time("big", 3.0)
        rows = profiler.time_shares()
        assert [name for name, _, _ in rows] == ["big", "small"]
        assert rows[0] == ("big", 3.0, 0.75)

    def test_time_shares_explicit_total(self):
        profiler = Profiler()
        profiler.add_time("a", 2.0)
        rows = profiler.time_shares(8.0)
        assert rows == [("a", 2.0, 0.25)]

    def test_time_shares_zero_total(self):
        profiler = Profiler()
        profiler.add_time("a", 0.0)
        assert profiler.time_shares() == [("a", 0.0, 0.0)]

    def test_snapshot_is_json_ready_copy(self):
        profiler = Profiler()
        profiler.add_time("a", 1.5)
        profiler.count("n", 2)
        snap = profiler.snapshot()
        assert snap == {"timers_s": {"a": 1.5}, "counters": {"n": 2.0}}
        snap["timers_s"]["a"] = 99.0
        assert profiler.timers["a"] == 1.5


class TestEngineWiring:
    def test_events_grouped_by_tag_category(self):
        engine = Engine()
        profiler = Profiler()
        profiler.attach(engine)
        fired = []
        engine.schedule(1.0, lambda: fired.append("a"), tag="arrival:j1")
        engine.schedule(2.0, lambda: fired.append("b"), tag="sample")
        engine.schedule(3.0, lambda: fired.append("c"))
        engine.schedule(4.0, lambda: fired.append("d"), tag="arrival:j2")
        engine.run()
        assert fired == ["a", "b", "c", "d"]
        assert profiler.counters == {"arrival": 2, "sample": 1, "untagged": 1}
        assert set(profiler.timers) == {"arrival", "sample", "untagged"}

    def test_recategorized_event_books_under_its_new_category(self):
        engine = Engine()
        profiler = Profiler()
        profiler.attach(engine)
        engine.schedule(
            1.0,
            lambda: engine.recategorize_current_event("schedule-skip"),
            tag="schedule-pass",
        )
        engine.schedule(2.0, lambda: None, tag="schedule-pass")
        engine.run()
        # The rename covers only the event that asked for it.
        assert profiler.counters == {"schedule-skip": 1, "schedule-pass": 1}

    def test_profiler_does_not_change_event_order(self):
        def run(profiler):
            engine = Engine()
            if profiler is not None:
                profiler.attach(engine)
            order = []
            engine.schedule(2.0, lambda: order.append("late"), tag="a")
            engine.schedule(1.0, lambda: order.append("early"), tag="b")
            engine.run()
            return order, engine.fired

        assert run(None) == run(Profiler())

    def test_attaching_twice_is_rejected(self):
        profiler = Profiler()
        profiler.attach(Engine())
        with pytest.raises(RuntimeError):
            profiler.attach(Engine())
