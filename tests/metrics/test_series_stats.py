"""Series primitives and distribution statistics."""

import pytest

from repro.metrics.series import SampledSeries, TimeWeightedValue
from repro.metrics.stats import (
    cdf_points,
    fraction_at_most,
    fraction_exceeding,
    mean,
    percentile,
)


class TestSampledSeries:
    def test_record_and_mean(self):
        series = SampledSeries("x")
        series.record(0.0, 1.0)
        series.record(1.0, 3.0)
        assert series.mean() == pytest.approx(2.0)
        assert len(series) == 2

    def test_rejects_time_regression(self):
        series = SampledSeries("x")
        series.record(5.0, 1.0)
        with pytest.raises(ValueError):
            series.record(4.0, 1.0)

    def test_empty_mean_is_zero(self):
        assert SampledSeries("x").mean() == 0.0

    def test_values_and_times(self):
        series = SampledSeries("x")
        series.record(1.0, 10.0)
        assert series.times() == [1.0]
        assert series.values() == [10.0]


class TestTimeWeightedValue:
    def test_integrates_step_function(self):
        signal = TimeWeightedValue("x")
        signal.set(0.0, 1.0)
        signal.set(10.0, 3.0)
        assert signal.mean(until=20.0) == pytest.approx(2.0)

    def test_current_value(self):
        signal = TimeWeightedValue("x")
        signal.set(0.0, 5.0)
        assert signal.current == 5.0

    def test_mean_without_updates_is_current(self):
        signal = TimeWeightedValue("x")
        assert signal.mean() == 0.0

    def test_rejects_time_regression(self):
        signal = TimeWeightedValue("x")
        signal.set(5.0, 1.0)
        with pytest.raises(ValueError):
            signal.set(4.0, 1.0)

    def test_until_before_last_raises(self):
        signal = TimeWeightedValue("x")
        signal.set(5.0, 1.0)
        with pytest.raises(ValueError):
            signal.mean(until=4.0)


class TestPercentile:
    def test_median(self):
        assert percentile([1, 2, 3, 4, 5], 50) == 3

    def test_interpolation(self):
        assert percentile([0, 10], 25) == pytest.approx(2.5)

    def test_extremes(self):
        values = [5, 1, 9]
        assert percentile(values, 0) == 1
        assert percentile(values, 100) == 9

    def test_single_value(self):
        assert percentile([7.0], 99) == 7.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            percentile([1], 101)


class TestFractions:
    def test_fraction_exceeding(self):
        assert fraction_exceeding([1, 2, 3, 4], 2) == pytest.approx(0.5)

    def test_fraction_exceeding_is_strict(self):
        assert fraction_exceeding([2, 2], 2) == 0.0

    def test_fraction_at_most(self):
        assert fraction_at_most([1, 2, 3, 4], 2) == pytest.approx(0.5)

    def test_empty_inputs(self):
        assert fraction_exceeding([], 1) == 0.0
        assert fraction_at_most([], 1) == 0.0

    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0
        assert mean([]) == 0.0


class TestCdf:
    def test_steps_reach_one(self):
        points = cdf_points([3, 1, 2])
        assert points[-1] == (3, 1.0)

    def test_duplicates_collapse(self):
        points = cdf_points([1, 1, 2])
        assert points == [(1, pytest.approx(2 / 3)), (2, 1.0)]

    def test_empty(self):
        assert cdf_points([]) == []

    def test_monotone(self):
        points = cdf_points([5, 3, 8, 1, 3])
        values = [v for v, _ in points]
        fracs = [f for _, f in points]
        assert values == sorted(values)
        assert fracs == sorted(fracs)
