"""Scenario construction and the comparison driver."""

import pytest

from repro.experiments.scenarios import (
    Scenario,
    paper_scale_scenario,
    run_comparison,
    run_scenario,
    small_scenario,
)
from repro.schedulers.fifo import FifoScheduler
from repro.sim.clock import DAY


class TestScenarioConstruction:
    def test_paper_scale_defaults(self):
        scenario = paper_scale_scenario()
        assert scenario.cluster_config.num_nodes == 80
        assert scenario.cluster_config.total_gpus == 400
        assert scenario.trace_config.gpu_jobs_per_day == 1250.0
        assert scenario.horizon_s == 2 * DAY + 6 * 3600.0

    def test_paper_scale_uncalibrated_uses_raw_rates(self):
        scenario = paper_scale_scenario(calibrated_load=False)
        assert scenario.trace_config.gpu_jobs_per_day == pytest.approx(
            25000.0 / 30.0
        )

    def test_small_scenario_scales_rates_with_nodes(self):
        small = small_scenario(nodes=8)
        smaller = small_scenario(nodes=4)
        assert small.trace_config.gpu_jobs_per_day == pytest.approx(
            2 * smaller.trace_config.gpu_jobs_per_day
        )

    def test_builders_are_fresh_each_call(self):
        scenario = small_scenario()
        assert scenario.build_cluster() is not scenario.build_cluster()
        first = scenario.build_trace()
        second = scenario.build_trace()
        assert [j.job_id for j in first.jobs] == [j.job_id for j in second.jobs]


class TestDrivers:
    def test_run_scenario_returns_summary(self):
        scenario = small_scenario(duration_days=0.05, nodes=4, seed=2)
        result = run_scenario(scenario, FifoScheduler())
        assert result.scheduler_name == "fifo"
        assert result.horizon_s == scenario.horizon_s

    def test_run_comparison_runs_identical_traces(self):
        scenario = small_scenario(duration_days=0.05, nodes=4, seed=2)
        results = run_comparison(scenario)
        assert set(results) == {"fifo", "drf", "coda"}
        submitted = {
            name: sorted(result.collector.records)
            for name, result in results.items()
        }
        assert submitted["fifo"] == submitted["drf"] == submitted["coda"]


class TestFaultScenarios:
    def test_default_scenario_has_no_injector(self):
        from repro.experiments.scenarios import small_scenario

        scenario = small_scenario(duration_days=0.02)
        assert scenario.fault_config is None
        assert scenario.build_fault_injector() is None

    def test_with_faults_builds_fresh_injectors(self):
        from repro.experiments.scenarios import small_scenario
        from repro.faults import FaultConfig

        scenario = small_scenario(duration_days=0.02).with_faults(
            FaultConfig(node_mtbf_s=3600.0)
        )
        first, second = (
            scenario.build_fault_injector(),
            scenario.build_fault_injector(),
        )
        assert first is not None and second is not None
        assert first is not second

    def test_inert_config_builds_no_injector(self):
        from repro.experiments.scenarios import small_scenario
        from repro.faults import FaultConfig

        scenario = small_scenario(duration_days=0.02).with_faults(FaultConfig())
        assert scenario.build_fault_injector() is None

    def test_mtbf_sweep_control_point_is_fault_free(self):
        from repro.experiments.scenarios import run_mtbf_sweep, small_scenario

        scenario = small_scenario(duration_days=0.02, nodes=3)
        results = run_mtbf_sweep(scenario, [0.0, 0.25], fault_seed=4)
        control, faulty = results[0.0], results[0.25]
        assert control.collector.faults.node_failures == 0
        assert control.restarts == 0
        assert faulty.collector.faults.node_failures > 0
        assert faulty.node_downtime_s > 0.0


class TestGridSpecs:
    def test_policy_major_order_and_labels(self):
        from repro.experiments.scenarios import grid_specs, small_scenario

        scenario = small_scenario(duration_days=0.02, nodes=3)
        specs = grid_specs(
            scenario, schedulers=("fifo", "coda"), seeds=(1, 2)
        )
        assert [spec.label() for spec in specs] == [
            "fifo:s1", "fifo:s2", "coda:s1", "coda:s2",
        ]
        assert all(spec.scenario is scenario for spec in specs)

    def test_cells_match_the_with_seed_form(self):
        from repro.core.coda import CodaConfig
        from repro.experiments.scenarios import grid_specs, small_scenario
        from repro.parallel import RunSpec

        scenario = small_scenario(duration_days=0.02, nodes=3)
        config = CodaConfig(reserved_cores=3)
        specs = grid_specs(
            scenario,
            schedulers=("fifo", "coda"),
            seeds=(1, 2),
            coda_config=config,
            sample_interval_s=600.0,
        )
        expected = [
            RunSpec(
                scenario=scenario,
                scheduler=name,
                coda_config=config,
                sample_interval_s=600.0,
            ).with_seed(seed)
            for name in ("fifo", "coda")
            for seed in (1, 2)
        ]
        assert specs == expected
        assert [s.canonical_json() for s in specs] == [
            s.canonical_json() for s in expected
        ]
        assert [s.fingerprint() for s in specs] == [
            s.fingerprint() for s in expected
        ]

    def test_coda_config_threaded_through(self):
        from repro.core.coda import CodaConfig
        from repro.experiments.scenarios import grid_specs, small_scenario

        config = CodaConfig(reserved_cores=3)
        specs = grid_specs(
            small_scenario(duration_days=0.02),
            schedulers=("coda",),
            coda_config=config,
        )
        assert specs[0].coda_config == config
