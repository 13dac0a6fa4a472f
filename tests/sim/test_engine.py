"""Engine run-loop behaviour."""

import pytest

from repro.sim.engine import Engine
from repro.sim.events import EventPriority


class TestScheduling:
    def test_fires_in_time_order(self, engine):
        fired = []
        engine.schedule(2.0, lambda: fired.append("b"))
        engine.schedule(1.0, lambda: fired.append("a"))
        engine.schedule(3.0, lambda: fired.append("c"))
        engine.run()
        assert fired == ["a", "b", "c"]

    def test_same_time_fires_fifo_within_priority(self, engine):
        fired = []
        for label in "abc":
            engine.schedule(1.0, lambda label=label: fired.append(label))
        engine.run()
        assert fired == ["a", "b", "c"]

    def test_priority_orders_same_instant(self, engine):
        fired = []
        engine.schedule(
            1.0, lambda: fired.append("arrival"), priority=EventPriority.ARRIVAL
        )
        engine.schedule(
            1.0,
            lambda: fired.append("completion"),
            priority=EventPriority.COMPLETION,
        )
        engine.run()
        assert fired == ["completion", "arrival"]

    def test_rejects_past_events(self, engine):
        engine.schedule(5.0, lambda: None)
        engine.run()
        with pytest.raises(ValueError):
            engine.schedule(4.0, lambda: None)

    def test_clock_advances_to_event_time(self, engine):
        engine.schedule(4.0, lambda: None)
        engine.run()
        assert engine.now == 4.0


class TestCancellation:
    def test_cancelled_events_do_not_fire(self, engine):
        fired = []
        handle = engine.schedule(1.0, lambda: fired.append("x"))
        handle.cancel()
        engine.run()
        assert fired == []

    def test_pending_excludes_cancelled(self, engine):
        keep = engine.schedule(1.0, lambda: None)
        drop = engine.schedule(2.0, lambda: None)
        drop.cancel()
        assert engine.pending == 1
        assert keep.time == 1.0

    def test_peek_skips_cancelled_head(self, engine):
        head = engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        head.cancel()
        assert engine.peek_time() == 2.0

    def test_cancel_during_execution(self, engine):
        fired = []
        later = engine.schedule(2.0, lambda: fired.append("later"))
        engine.schedule(1.0, later.cancel)
        engine.run()
        assert fired == []


class TestRunLoop:
    def test_run_until_stops_before_later_events(self, engine):
        fired = []
        engine.schedule(1.0, lambda: fired.append(1))
        engine.schedule(5.0, lambda: fired.append(5))
        engine.run(until=3.0)
        assert fired == [1]
        assert engine.pending == 1

    def test_run_until_includes_boundary_events(self, engine):
        fired = []
        engine.schedule(3.0, lambda: fired.append(3))
        engine.run(until=3.0)
        assert fired == [3]

    def test_run_until_advances_clock_to_horizon(self, engine):
        engine.schedule(1.0, lambda: None)
        engine.run(until=10.0)
        assert engine.now == 10.0

    def test_max_events_limits_execution(self, engine):
        fired = []
        for i in range(5):
            engine.schedule(float(i + 1), lambda i=i: fired.append(i))
        engine.run(max_events=2)
        assert fired == [0, 1]

    def test_events_scheduled_during_run_fire(self, engine):
        fired = []

        def chain():
            fired.append("first")
            engine.schedule(engine.now + 1.0, lambda: fired.append("second"))

        engine.schedule(1.0, chain)
        engine.run()
        assert fired == ["first", "second"]

    def test_run_returns_fired_count(self, engine):
        engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        assert engine.run() == 2

    def test_step_on_empty_queue_returns_false(self, engine):
        assert engine.step() is False

    def test_reentrancy_is_rejected(self, engine):
        def recurse():
            engine.run()

        engine.schedule(1.0, recurse)
        with pytest.raises(RuntimeError):
            engine.run()

    def test_fired_counter(self, engine):
        engine.schedule(1.0, lambda: None)
        engine.run()
        assert engine.fired == 1


class TestLivePendingCounter:
    """``Engine.pending`` is a maintained counter, not a heap scan; every
    transition (schedule, fire, cancel, double-cancel, cancel-after-fire)
    must keep it exact."""

    def test_counts_schedules_and_fires(self, engine):
        handles = [engine.schedule(float(i + 1), lambda: None) for i in range(5)]
        assert engine.pending == 5
        engine.run(max_events=2)
        assert engine.pending == 3
        engine.run()
        assert engine.pending == 0
        assert all(h.time for h in handles)  # keep handles alive

    def test_double_cancel_decrements_once(self, engine):
        engine.schedule(1.0, lambda: None)
        handle = engine.schedule(2.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert engine.pending == 1

    def test_cancel_after_fire_is_a_noop(self, engine):
        handle = engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        engine.run(max_events=1)
        assert engine.pending == 1
        handle.cancel()  # already fired: must not corrupt the counter
        assert engine.pending == 1

    def test_cancel_inside_callback_counts_once(self, engine):
        victim = engine.schedule(3.0, lambda: None)

        def kill():
            victim.cancel()
            victim.cancel()

        engine.schedule(1.0, kill)
        assert engine.pending == 2
        engine.run()
        assert engine.pending == 0

    def test_counter_matches_heap_under_interleaving(self, engine):
        import random

        rng = random.Random(42)
        live = []
        expected = 0
        for _ in range(300):
            if live and rng.random() < 0.4:
                handle, fired_or_cancelled = live.pop(rng.randrange(len(live)))
                if not fired_or_cancelled:
                    handle.cancel()
                    expected -= 1
            else:
                live.append([engine.schedule(rng.uniform(0.1, 50.0), lambda: None), False])
                expected += 1
            assert engine.pending == expected
        fired = engine.run()
        assert fired == expected
        assert engine.pending == 0


class TestSpentActions:
    """Fired and cancelled events drop their action, so a closure over
    its owner cannot keep the owner, the engine and the event's handles
    in a reference cycle."""

    def test_fired_event_holds_no_action(self, engine):
        seen = []
        handle = engine.schedule(1.0, lambda: seen.append(handle._event.action))
        engine.run()
        assert seen == [None]  # dropped before the action ran
        assert handle._event.fired

    def test_cancelled_event_holds_no_action(self, engine):
        handle = engine.schedule(1.0, lambda: None)
        handle.cancel()
        assert handle._event.action is None
        assert handle.cancelled and handle.time == 1.0

    def test_observers_still_see_the_fired_event(self, engine):
        seen = []
        engine.add_observer(lambda event: seen.append((event.time, event.tag)))
        engine.schedule(2.0, lambda: None, tag="x")
        engine.run()
        assert seen == [(2.0, "x")]


class TestDetach:
    def test_detach_drops_queued_actions_and_observers(self, engine):
        observed = []
        engine.add_observer(observed.append)
        engine.schedule(1.0, lambda: None)
        later = engine.schedule(5.0, lambda: None, tag="later")
        engine.run(until=2.0)
        engine.detach()
        assert later._event.action is None
        assert engine._observers == []
        # Clock, counters and the live inventory stay readable.
        assert (engine.now, engine.fired, engine.pending) == (2.0, 1, 1)
        assert engine.snapshot()["live"] == [[5.0, EventPriority.SCHEDULE, 1, "later"]]

    def test_a_detached_engine_refuses_to_run(self, engine):
        engine.schedule(1.0, lambda: None)
        engine.detach()
        with pytest.raises(RuntimeError):
            engine.run()
        with pytest.raises(RuntimeError):
            engine.step()
        assert engine.fired == 0
