"""ResourceVector arithmetic and DRF shares."""

import pytest

from repro.cluster.resources import ResourceVector


class TestConstruction:
    def test_defaults_to_zero(self):
        vector = ResourceVector()
        assert vector.cpus == 0 and vector.gpus == 0

    def test_rejects_negative_cpus(self):
        with pytest.raises(ValueError):
            ResourceVector(cpus=-1)

    def test_rejects_negative_gpus(self):
        with pytest.raises(ValueError):
            ResourceVector(gpus=-1)

    def test_is_hashable(self):
        assert len({ResourceVector(1, 2), ResourceVector(1, 2)}) == 1


class TestArithmetic:
    def test_addition(self):
        assert ResourceVector(1, 2) + ResourceVector(3, 4) == ResourceVector(4, 6)

    def test_subtraction(self):
        assert ResourceVector(5, 5) - ResourceVector(2, 3) == ResourceVector(3, 2)

    def test_subtraction_below_zero_raises(self):
        with pytest.raises(ValueError):
            ResourceVector(1, 1) - ResourceVector(2, 0)

    def test_scaled(self):
        assert ResourceVector(2, 1).scaled(3) == ResourceVector(6, 3)

    def test_scaled_rejects_negative(self):
        with pytest.raises(ValueError):
            ResourceVector(1, 1).scaled(-1)


class TestFits:
    def test_fits_when_both_dimensions_fit(self):
        assert ResourceVector(2, 1).fits(ResourceVector(4, 2))

    def test_does_not_fit_on_cpu_overflow(self):
        assert not ResourceVector(5, 0).fits(ResourceVector(4, 2))

    def test_does_not_fit_on_gpu_overflow(self):
        assert not ResourceVector(0, 3).fits(ResourceVector(4, 2))

    def test_exact_fit(self):
        assert ResourceVector(4, 2).fits(ResourceVector(4, 2))

    def test_is_zero(self):
        assert ResourceVector(3, 2) - ResourceVector(3, 2) == ResourceVector()
        assert ResourceVector(1, 0) != ResourceVector()


class TestDominantShare:
    def test_cpu_dominant(self):
        usage = ResourceVector(cpus=50, gpus=1)
        total = ResourceVector(cpus=100, gpus=100)
        assert usage.dominant_share(total) == 0.5

    def test_gpu_dominant(self):
        usage = ResourceVector(cpus=1, gpus=50)
        total = ResourceVector(cpus=100, gpus=100)
        assert usage.dominant_share(total) == 0.5

    def test_zero_capacity_dimension_is_ignored(self):
        usage = ResourceVector(cpus=10, gpus=0)
        total = ResourceVector(cpus=100, gpus=0)
        assert usage.dominant_share(total) == 0.1

    def test_all_zero_capacity_raises(self):
        with pytest.raises(ValueError):
            ResourceVector(1, 1).dominant_share(ResourceVector(0, 0))

    def test_zero_usage_is_zero(self):
        assert ResourceVector().dominant_share(ResourceVector(10, 10)) == 0.0

    def test_str_format(self):
        assert str(ResourceVector(3, 2)) == "<3c,2g>"
