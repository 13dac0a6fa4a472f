"""Bandwidth-monitor arbitration (the simulated MBM)."""

import pytest

from repro.cluster.mbm import BandwidthMonitor


class TestRegistration:
    def test_register_and_read(self):
        monitor = BandwidthMonitor(100.0)
        monitor.register("a", 10.0, is_cpu_job=True)
        assert monitor.usage_of("a").demand == 10.0
        assert monitor.has("a")

    def test_double_register_raises(self):
        monitor = BandwidthMonitor(100.0)
        monitor.register("a", 10.0, is_cpu_job=True)
        with pytest.raises(RuntimeError):
            monitor.register("a", 5.0, is_cpu_job=True)

    def test_negative_demand_raises(self):
        monitor = BandwidthMonitor(100.0)
        with pytest.raises(ValueError):
            monitor.register("a", -1.0, is_cpu_job=True)

    def test_unregister_removes(self):
        monitor = BandwidthMonitor(100.0)
        monitor.register("a", 10.0, is_cpu_job=True)
        monitor.unregister("a")
        assert not monitor.has("a")

    def test_unregister_unknown_is_silent(self):
        BandwidthMonitor(100.0).unregister("ghost")

    def test_update_demand_rearbitrates(self):
        monitor = BandwidthMonitor(100.0)
        monitor.register("a", 10.0, is_cpu_job=True)
        monitor.update_demand("a", 60.0)
        assert monitor.usage_of("a").granted == 60.0

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            BandwidthMonitor(0.0)


class TestArbitration:
    def test_undersubscribed_grants_everything(self):
        monitor = BandwidthMonitor(100.0)
        monitor.register("a", 30.0, is_cpu_job=True)
        monitor.register("b", 40.0, is_cpu_job=False)
        assert monitor.grant_ratio("a") == 1.0
        assert monitor.grant_ratio("b") == 1.0
        assert monitor.pressure == pytest.approx(0.7)

    def test_oversubscribed_equal_demands_share_equally(self):
        monitor = BandwidthMonitor(100.0)
        monitor.register("a", 80.0, is_cpu_job=True)
        monitor.register("b", 80.0, is_cpu_job=True)
        assert monitor.usage_of("a").granted == pytest.approx(50.0)
        assert monitor.usage_of("b").granted == pytest.approx(50.0)

    def test_max_min_protects_small_demands(self):
        """A tiny trainer keeps its full grant while a hog is squeezed —
        this is why NLP jobs suffer via latency, not starvation."""
        monitor = BandwidthMonitor(100.0)
        monitor.register("trainer", 1.0, is_cpu_job=False)
        monitor.register("heat", 200.0, is_cpu_job=True)
        assert monitor.grant_ratio("trainer") == 1.0
        assert monitor.usage_of("heat").granted == pytest.approx(99.0)

    def test_three_way_water_filling(self):
        monitor = BandwidthMonitor(90.0)
        monitor.register("small", 10.0, is_cpu_job=True)
        monitor.register("mid", 40.0, is_cpu_job=True)
        monitor.register("big", 100.0, is_cpu_job=True)
        assert monitor.usage_of("small").granted == pytest.approx(10.0)
        assert monitor.usage_of("mid").granted == pytest.approx(40.0)
        assert monitor.usage_of("big").granted == pytest.approx(40.0)

    def test_total_granted_never_exceeds_capacity(self):
        monitor = BandwidthMonitor(100.0)
        for index in range(7):
            monitor.register(f"job{index}", 30.0, is_cpu_job=True)
        assert monitor.total_granted <= 100.0 + 1e-9

    def test_grant_ratio_of_zero_demand_is_one(self):
        monitor = BandwidthMonitor(100.0)
        monitor.register("idle", 0.0, is_cpu_job=True)
        assert monitor.grant_ratio("idle") == 1.0

    def test_pressure_is_granted_over_capacity(self):
        monitor = BandwidthMonitor(100.0)
        monitor.register("hog", 500.0, is_cpu_job=True)
        assert monitor.pressure == pytest.approx(1.0)


class TestCaps:
    def test_cap_limits_grant(self):
        monitor = BandwidthMonitor(100.0)
        monitor.register("a", 80.0, is_cpu_job=True)
        monitor.set_cap("a", 20.0)
        assert monitor.usage_of("a").granted == pytest.approx(20.0)

    def test_cap_releases_bandwidth_to_others(self):
        monitor = BandwidthMonitor(100.0)
        monitor.register("a", 80.0, is_cpu_job=True)
        monitor.register("b", 80.0, is_cpu_job=False)
        monitor.set_cap("a", 20.0)
        assert monitor.usage_of("b").granted == pytest.approx(80.0)

    def test_cap_none_lifts_throttle(self):
        monitor = BandwidthMonitor(100.0)
        monitor.register("a", 80.0, is_cpu_job=True)
        monitor.set_cap("a", 20.0)
        monitor.set_cap("a", None)
        assert monitor.usage_of("a").granted == pytest.approx(80.0)

    def test_negative_cap_raises(self):
        monitor = BandwidthMonitor(100.0)
        monitor.register("a", 10.0, is_cpu_job=True)
        with pytest.raises(ValueError):
            monitor.set_cap("a", -5.0)

    def test_cpu_job_usages_filters_kind(self):
        monitor = BandwidthMonitor(100.0)
        monitor.register("cpu", 10.0, is_cpu_job=True)
        monitor.register("gpu", 10.0, is_cpu_job=False)
        assert set(monitor.cpu_job_usages()) == {"cpu"}


class TestUncontendedFastPath:
    """The fast path must land on the identical grant vector the
    water-filling rounds produce (bitwise: repricing memos and the
    decision stream are keyed on these floats)."""

    @staticmethod
    def _reference_grants(capacity, specs):
        """The pre-fast-path algorithm, verbatim."""
        demands = {job: min(d, c) if c is not None else d for job, (d, c) in specs.items()}
        granted = {job: 0.0 for job in specs}
        pending = [job for job, d in demands.items() if d > 0]
        remaining = capacity
        while pending and remaining > 1e-12:
            fair_share = remaining / len(pending)
            satisfied = [j for j in pending if demands[j] <= fair_share]
            if satisfied:
                for job in satisfied:
                    granted[job] = demands[job]
                    remaining -= demands[job]
                pending = [j for j in pending if demands[j] > fair_share]
            else:
                for job in pending:
                    granted[job] = fair_share
                remaining = 0.0
                pending = []
        return {job: min(granted[job], demands[job]) for job in specs}

    def _check(self, capacity, specs):
        monitor = BandwidthMonitor(capacity)
        for job, (demand, cap) in specs.items():
            monitor.register(job, demand, is_cpu_job=True)
            if cap is not None:
                monitor.set_cap(job, cap)
        expected = self._reference_grants(capacity, specs)
        for job in specs:
            assert monitor.usage_of(job).granted == expected[job], job

    def test_uncontended_grants_equal_demands(self):
        self._check(100.0, {"a": (10.0, None), "b": (20.5, None), "c": (0.0, None)})

    def test_contended_matches_reference_rounds(self):
        self._check(100.0, {"a": (60.0, None), "b": (70.0, None), "c": (5.0, None)})

    def test_near_capacity_boundary_matches_reference(self):
        import random

        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(1, 6)
            capacity = rng.uniform(50.0, 150.0)
            total_scale = rng.choice([0.3, 0.9, 0.999, 1.0, 1.001, 1.5])
            raw = [rng.uniform(0.0, 1.0) for _ in range(n)]
            scale = capacity * total_scale / max(sum(raw), 1e-9)
            specs = {
                f"j{i}": (raw[i] * scale, rng.choice([None, raw[i] * scale * 0.5]))
                for i in range(n)
            }
            self._check(capacity, specs)


class TestChangedSet:
    """``drain_changed`` names exactly the jobs whose grant ratio moved
    (plus new registrations): the runner reprices only those."""

    def test_uncontended_register_names_only_the_new_job(self):
        monitor = BandwidthMonitor(100.0)
        monitor.register("a", 10.0, is_cpu_job=True)
        assert monitor.drain_changed() == {"a"}
        monitor.register("b", 20.0, is_cpu_job=False)
        assert monitor.drain_changed() == {"b"}
        assert monitor.drain_changed() == set()

    def test_uncontended_update_keeps_ratio_and_names_nobody(self):
        monitor = BandwidthMonitor(100.0)
        monitor.register("a", 10.0, is_cpu_job=True)
        monitor.register("b", 20.0, is_cpu_job=True)
        monitor.drain_changed()
        # The grant follows the demand, so the ratio stays 1.0: callers
        # that change a speed input along with the demand reprice
        # directly.
        monitor.update_demand("a", 30.0)
        assert monitor.drain_changed() == set()

    def test_uncontended_update_of_a_capped_job_names_it(self):
        monitor = BandwidthMonitor(100.0)
        monitor.register("a", 40.0, is_cpu_job=True)
        monitor.register("b", 20.0, is_cpu_job=True)
        monitor.drain_changed()
        monitor.set_cap("a", 20.0)
        assert monitor.drain_changed() == {"a"}
        monitor.update_demand("a", 80.0)  # cap 20 of 80: ratio 0.5 -> 0.25
        assert monitor.drain_changed() == {"a"}

    def test_uncontended_cap_names_only_the_capped_job(self):
        monitor = BandwidthMonitor(100.0)
        monitor.register("a", 40.0, is_cpu_job=True)
        monitor.register("b", 20.0, is_cpu_job=True)
        monitor.drain_changed()
        monitor.set_cap("a", 10.0)
        assert monitor.drain_changed() == {"a"}
        monitor.set_cap("a", None)
        assert monitor.drain_changed() == {"a"}

    def test_contended_names_every_job_whose_ratio_moved(self):
        monitor = BandwidthMonitor(100.0)
        monitor.register("small", 10.0, is_cpu_job=True)
        monitor.register("a", 40.0, is_cpu_job=True)
        monitor.register("b", 40.0, is_cpu_job=True)
        monitor.drain_changed()
        # 10 + 40 + 80 > 100: "small" keeps its whole demand, "a" and
        # "b" split the remaining 90 equally.
        monitor.update_demand("b", 80.0)
        assert monitor.grant_ratio("small") == 1.0
        assert monitor.grant_ratio("a") == 1.0
        assert monitor.grant_ratio("b") < 1.0
        assert monitor.drain_changed() == {"b"}
        monitor.update_demand("a", 60.0)
        assert monitor.grant_ratio("a") < 1.0
        assert monitor.drain_changed() == {"a", "b"}

    def test_unregister_names_the_jobs_it_relieves(self):
        monitor = BandwidthMonitor(100.0)
        monitor.register("a", 80.0, is_cpu_job=True)
        monitor.register("b", 80.0, is_cpu_job=True)
        monitor.register("c", 1.0, is_cpu_job=True)
        monitor.drain_changed()
        monitor.unregister("a")
        assert monitor.drain_changed() == {"b"}
        # A job that leaves before the drain is not named either.
        monitor.register("d", 1.0, is_cpu_job=True)
        monitor.unregister("d")
        assert monitor.drain_changed() == set()

    def test_ratio_matches_granted_over_demand(self):
        monitor = BandwidthMonitor(90.0)
        monitor.register("small", 10.0, is_cpu_job=True)
        monitor.register("mid", 40.0, is_cpu_job=True)
        monitor.register("big", 100.0, is_cpu_job=True)
        monitor.register("idle", 0.0, is_cpu_job=True)
        for job in ("small", "mid", "big"):
            usage = monitor.usage_of(job)
            assert monitor.grant_ratio(job) == usage.granted / usage.demand
        assert monitor.grant_ratio("idle") == 1.0

    def test_restore_starts_with_an_empty_set(self):
        monitor = BandwidthMonitor(100.0)
        monitor.register("a", 80.0, is_cpu_job=True)
        monitor.register("b", 80.0, is_cpu_job=True)
        state = monitor.snapshot()
        restored = BandwidthMonitor(100.0)
        restored.register("ghost", 1.0, is_cpu_job=True)
        restored.restore(state)
        assert restored.drain_changed() == set()
        for job in ("a", "b"):
            assert restored.grant_ratio(job) == monitor.grant_ratio(job)
