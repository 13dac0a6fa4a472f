"""Property-based tests on system-level behaviours."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import Cluster
from repro.cluster.resources import ResourceVector
from repro.config import ClusterConfig, NodeConfig
from repro.perfmodel.catalog import ALL_MODEL_NAMES, get_model
from repro.perfmodel.contention import ContentionState
from repro.perfmodel.speed import iteration_time
from repro.perfmodel.stages import TrainSetup
from repro.schedulers.placement import FreeState, place_cpu_job, place_gpu_job
from repro.workload.arrivals import DiurnalRate, poisson_arrivals
from repro.workload.job import CpuJob, GpuJob

model_names = st.sampled_from(sorted(ALL_MODEL_NAMES))
setups = st.builds(
    TrainSetup,
    num_nodes=st.integers(min_value=1, max_value=3),
    gpus_per_node=st.integers(min_value=1, max_value=4),
)
contentions = st.builds(
    ContentionState,
    bw_grant_ratio=st.floats(min_value=0.05, max_value=1.0, allow_nan=False),
    node_bw_pressure=st.floats(min_value=0.0, max_value=1.2, allow_nan=False),
    llc_pressure=st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
    pcie_grant_ratio=st.floats(min_value=0.2, max_value=1.0, allow_nan=False),
)


class TestIterationTimeProperties:
    @given(model_names, setups, st.integers(min_value=1, max_value=28))
    @settings(max_examples=120)
    def test_total_bounds_and_utilization(self, name, setup, cores):
        breakdown = iteration_time(get_model(name), setup, cores)
        assert breakdown.total_s >= breakdown.gpu_s
        assert 0.0 < breakdown.utilization <= 1.0

    @given(model_names, setups, st.integers(min_value=1, max_value=27), contentions)
    @settings(max_examples=120)
    def test_contention_never_speeds_things_up(self, name, setup, cores, state):
        profile = get_model(name)
        quiet = iteration_time(profile, setup, cores).total_s
        loud = iteration_time(profile, setup, cores, state).total_s
        assert loud >= quiet - 1e-9

    @given(model_names, setups, st.integers(min_value=1, max_value=27))
    @settings(max_examples=120)
    def test_prep_time_monotone_in_cores(self, name, setup, cores):
        profile = get_model(name)
        fewer = iteration_time(profile, setup, cores).prep_s
        more = iteration_time(profile, setup, cores + 1).prep_s
        assert more <= fewer + 1e-12


class TestPlacementProperties:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=28),  # free cpus
                st.integers(min_value=0, max_value=8),  # free gpus
            ),
            min_size=1,
            max_size=8,
        ),
        st.integers(min_value=1, max_value=28),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=120)
    def test_gpu_placement_is_feasible_and_exact(
        self, frees, cpus, gpus, nodes
    ):
        free = FreeState({i: pair for i, pair in enumerate(frees)})
        job = GpuJob(
            job_id="j",
            tenant_id=1,
            submit_time=0.0,
            model_name="resnet50",
            setup=TrainSetup(nodes, gpus),
            requested_cpus=cpus,
            total_iterations=1,
        )
        placements = place_gpu_job(job, free)
        feasible_nodes = [
            i for i, (fc, fg) in enumerate(frees) if fc >= cpus and fg >= gpus
        ]
        if placements is None:
            assert len(feasible_nodes) < nodes
        else:
            assert len(placements) == nodes
            assert len({n for n, _, _ in placements}) == nodes
            for node_id, placed_cpus, placed_gpus in placements:
                assert placed_cpus == cpus and placed_gpus == gpus
                assert node_id in feasible_nodes
            free.commit(placements)  # must not raise

    @given(
        st.lists(
            st.integers(min_value=0, max_value=28), min_size=1, max_size=8
        ),
        st.integers(min_value=1, max_value=28),
    )
    @settings(max_examples=120)
    def test_cpu_placement_picks_tightest_feasible(self, frees, cores):
        free = FreeState({i: (fc, 0) for i, fc in enumerate(frees)})
        job = CpuJob(job_id="c", tenant_id=1, submit_time=0.0, cores=cores)
        placements = place_cpu_job(job, free)
        feasible = [fc for fc in frees if fc >= cores]
        if placements is None:
            assert not feasible
        else:
            node_id = placements[0][0]
            assert frees[node_id] == min(feasible)


class TestClusterAllocationProperties:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=10),
                st.integers(min_value=0, max_value=4),
            ),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=60)
    def test_allocate_release_conserves_capacity(self, requests):
        cluster = Cluster(
            ClusterConfig(node_groups=((2, NodeConfig(cores=28, gpus=4)),))
        )
        total_before = cluster.total
        placed = []
        for index, (cpus, gpus) in enumerate(requests):
            job_id = f"j{index}"
            node = next(
                (n for n in cluster.nodes if n.can_fit(cpus, gpus)), None
            )
            if node is None:
                continue
            cluster.allocate(job_id, [(node.node_id, cpus, gpus)])
            placed.append(job_id)
        used = cluster.used
        assert used.cpus <= total_before.cpus
        assert used.gpus <= total_before.gpus
        for job_id in placed:
            cluster.release(job_id)
        assert cluster.used == ResourceVector()
        assert cluster.total == total_before


class TestArrivalProperties:
    @given(
        st.integers(min_value=0, max_value=2**31),
        st.floats(min_value=0.001, max_value=0.2, allow_nan=False),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    @settings(max_examples=60)
    def test_arrivals_sorted_unique_in_window(self, seed, base, amplitude):
        rate = DiurnalRate(base_per_s=base, amplitude=amplitude)
        arrivals = list(
            poisson_arrivals(rate, rate.max_rate, 3600.0, random.Random(seed))
        )
        assert arrivals == sorted(arrivals)
        assert len(set(arrivals)) == len(arrivals)
        assert all(0 <= t < 3600.0 for t in arrivals)
