"""MBA throttle-controller semantics."""

import pytest

from repro.cluster.mba import MBA_LEVELS, MbaController
from repro.cluster.mbm import BandwidthMonitor


def _controller(supported=True):
    monitor = BandwidthMonitor(100.0)
    monitor.register("job", 50.0, is_cpu_job=True)
    return MbaController(monitor=monitor, supported=supported), monitor


class TestLevels:
    def test_levels_descend_from_unthrottled(self):
        assert MBA_LEVELS[0] == 1.0
        assert list(MBA_LEVELS) == sorted(MBA_LEVELS, reverse=True)

    def test_default_level_is_unthrottled(self):
        controller, _ = _controller()
        assert controller.throttle_level("job") == 1.0


class TestThrottleDown:
    def test_first_step_goes_to_90_percent(self):
        controller, monitor = _controller()
        level = controller.throttle_down("job")
        assert level == pytest.approx(0.9)
        assert monitor.usage_of("job").granted == pytest.approx(45.0)

    def test_repeated_steps_descend(self):
        controller, _ = _controller()
        controller.throttle_down("job")
        assert controller.throttle_down("job") == pytest.approx(0.8)

    def test_bottoms_out_at_ten_percent(self):
        controller, _ = _controller()
        for _ in range(20):
            level = controller.throttle_down("job")
        assert level == pytest.approx(0.1)

    def test_unsupported_node_raises(self):
        controller, _ = _controller(supported=False)
        with pytest.raises(RuntimeError):
            controller.throttle_down("job")


class TestRelease:
    def test_release_lifts_cap(self):
        controller, monitor = _controller()
        controller.throttle_down("job")
        controller.release("job")
        assert monitor.usage_of("job").granted == pytest.approx(50.0)
        assert controller.throttle_level("job") == 1.0

    def test_release_unknown_is_silent(self):
        controller, _ = _controller()
        controller.release("ghost")

    def test_release_after_unregister_is_safe(self):
        controller, monitor = _controller()
        controller.throttle_down("job")
        monitor.unregister("job")
        controller.release("job")
