"""FaultInjector wiring: stream independence, seeding, attach rules."""

import pytest

from repro.cluster.cluster import Cluster
from repro.config import small_cluster
from repro.experiments.runner import SimulationRunner
from repro.faults import FaultConfig, FaultInjector
from repro.schedulers.fifo import FifoScheduler


def record_faults(engine):
    """``(time, tag)`` of every ``fault:*`` event ``engine`` fires, as the
    engine fired it, in firing order."""
    fired = []

    def observe(event):
        if event.tag.startswith("fault:"):
            fired.append((event.time, event.tag))

    engine.add_observer(observe)
    return fired


def _run(config, *, seed=None, until=20_000.0, nodes=2):
    runner = SimulationRunner(
        Cluster(small_cluster(nodes=nodes)),
        FifoScheduler(),
        sample_interval_s=500.0,
        fault_injector=FaultInjector(config, seed=seed),
    )
    fired = record_faults(runner.engine)
    runner.engine.run(until=until)
    return fired


class TestAttach:
    def test_double_attach_is_refused(self):
        injector = FaultInjector(FaultConfig(node_mtbf_s=100.0))
        cluster = Cluster(small_cluster(nodes=1))
        SimulationRunner(
            cluster, FifoScheduler(), sample_interval_s=500.0,
            fault_injector=injector,
        )
        with pytest.raises(RuntimeError):
            SimulationRunner(
                Cluster(small_cluster(nodes=1)),
                FifoScheduler(),
                sample_interval_s=500.0,
                fault_injector=injector,
            )

    def test_inert_config_schedules_nothing(self):
        assert _run(FaultConfig(), until=5000.0) == []


class TestDeterminism:
    CONFIG = FaultConfig(
        seed=3,
        node_mtbf_s=2000.0,
        node_mttr_s=300.0,
        telemetry_mtbf_s=1500.0,
    )

    def test_same_seed_same_schedule(self):
        assert _run(self.CONFIG) == _run(self.CONFIG)

    def test_seed_override_beats_config_seed(self):
        baseline = _run(self.CONFIG)
        reseeded = _run(self.CONFIG, seed=99)
        assert baseline != reseeded
        assert reseeded == _run(self.CONFIG, seed=99)

    def test_channels_draw_from_independent_streams(self):
        """Toggling one channel must not move another channel's events:
        each (channel, node) pair owns a named RNG stream."""
        with_mbm = _run(self.CONFIG)
        without_mbm = _run(
            FaultConfig(seed=3, node_mtbf_s=2000.0, node_mttr_s=300.0)
        )
        crashes = [fault for fault in with_mbm if fault[1].startswith("fault:crash:")]
        crashes_alone = [
            fault for fault in without_mbm if fault[1].startswith("fault:crash:")
        ]
        assert any(tag.startswith("fault:mbm:") for _, tag in with_mbm)
        assert crashes and crashes == crashes_alone

    def test_nodes_draw_from_independent_streams(self):
        """Growing the cluster leaves existing nodes' schedules alone."""
        small = _run(self.CONFIG, nodes=2)
        large = _run(self.CONFIG, nodes=3)
        node0 = [when for when, tag in small if tag == "fault:crash:0"]
        node0_large = [when for when, tag in large if tag == "fault:crash:0"]
        assert node0 and node0 == node0_large
