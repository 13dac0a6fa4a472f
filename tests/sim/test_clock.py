"""Clock semantics: monotonicity and formatting."""

import pytest

from repro.sim.clock import DAY, HOUR, MINUTE, fmt_duration
from repro.sim.engine import Engine, Timer


class TestClock:
    """The engine's time: it starts non-negative and only moves forward."""

    def test_starts_at_zero_by_default(self):
        assert Engine().now == 0.0

    def test_starts_at_given_time(self):
        assert Engine(5.0).now == 5.0

    def test_rejects_negative_start(self):
        with pytest.raises(ValueError):
            Engine(-1.0)

    def test_advances_forward(self):
        engine = Engine()
        engine.schedule(10.0, lambda: None)
        engine.run()
        assert engine.now == 10.0

    def test_advance_to_same_time_is_allowed(self):
        engine = Engine(3.0)
        engine.schedule(3.0, lambda: None)
        assert engine.run() == 1
        assert engine.now == 3.0

    def test_rejects_moving_backwards(self):
        # A restored inventory whose event lies before the restored clock
        # is a corrupted queue.
        engine = Engine()
        engine.declare(Timer("x", priority=0), lambda: None)
        engine.restore(
            {"now": 10.0, "seq": 1, "fired": 0, "live": [[9.999, 0, 0, "x"]]}
        )
        with pytest.raises(ValueError, match="backwards"):
            engine.step()

    def test_repr_mentions_time(self):
        assert "12.5" in repr(Engine(12.5))


class TestUnits:
    def test_unit_relationships(self):
        assert MINUTE == 60.0
        assert HOUR == 60 * MINUTE
        assert DAY == 24 * HOUR

    def test_fmt_seconds(self):
        assert fmt_duration(12.3) == "12.3s"

    def test_fmt_minutes(self):
        assert fmt_duration(90.0) == "1.5min"

    def test_fmt_hours(self):
        assert fmt_duration(2 * HOUR) == "2.00h"

    def test_fmt_days(self):
        assert fmt_duration(2.5 * DAY) == "2.50d"
