"""FreeState snapshots and best-fit placement."""

import pytest

from repro.perfmodel.stages import TrainSetup
from repro.schedulers.dirty import PassGate
from repro.schedulers.placement import FreeState, place_cpu_job, place_gpu_job
from repro.workload.job import CpuJob, GpuJob


def _gpu_job(num_nodes=1, gpus_per_node=1, requested_cpus=2):
    return GpuJob(
        job_id="g",
        tenant_id=1,
        submit_time=0.0,
        model_name="resnet50",
        setup=TrainSetup(num_nodes, gpus_per_node),
        requested_cpus=requested_cpus,
        total_iterations=10,
    )


def _cpu_job(cores=4):
    return CpuJob(job_id="c", tenant_id=1, submit_time=0.0, cores=cores)


class TestFreeState:
    def test_of_cluster(self, tiny_cluster):
        tiny_cluster.allocate("x", [(0, 4, 1)])
        free = FreeState.of(tiny_cluster)
        assert free.free_of(0) == (24, 3)
        assert free.free_of(1) == (28, 4)

    def test_of_cluster_among(self, tiny_cluster):
        free = FreeState.of(tiny_cluster, among=[1])
        assert free.node_ids() == [1]

    def test_commit_deducts(self, tiny_cluster):
        free = FreeState.of(tiny_cluster)
        free.commit([(0, 4, 2)])
        assert free.free_of(0) == (24, 2)

    def test_commit_overcommit_raises(self, tiny_cluster):
        free = FreeState.of(tiny_cluster)
        with pytest.raises(RuntimeError):
            free.commit([(0, 100, 0)])

    def test_add_returns_capacity(self, tiny_cluster):
        tiny_cluster.allocate("x", [(0, 28, 4)])
        free = FreeState.of(tiny_cluster)
        free.add(0, 28, 4)
        assert free.free_of(0) == (28, 4)


class TestPlaceGpuJob:
    def test_simple_placement(self, tiny_cluster):
        free = FreeState.of(tiny_cluster)
        placements = place_gpu_job(_gpu_job(), free)
        assert placements == [(0, 2, 1)]

    def test_best_fit_prefers_tightest_gpus(self, tiny_cluster):
        tiny_cluster.allocate("x", [(0, 2, 3)])
        free = FreeState.of(tiny_cluster)
        placements = place_gpu_job(_gpu_job(), free)
        assert placements[0][0] == 0  # the node with only 1 free GPU

    def test_respects_core_requirement(self, tiny_cluster):
        tiny_cluster.allocate("x", [(0, 27, 0)])
        free = FreeState.of(tiny_cluster)
        placements = place_gpu_job(_gpu_job(requested_cpus=4), free)
        assert placements[0][0] == 1

    def test_cpus_override(self, tiny_cluster):
        free = FreeState.of(tiny_cluster)
        placements = place_gpu_job(_gpu_job(requested_cpus=2), free, cpus_per_node=7)
        assert placements[0][1] == 7

    def test_multi_node_needs_distinct_nodes(self, tiny_cluster):
        free = FreeState.of(tiny_cluster)
        placements = place_gpu_job(_gpu_job(num_nodes=2, gpus_per_node=2), free)
        assert len({node_id for node_id, _, _ in placements}) == 2

    def test_multi_node_fails_without_enough_nodes(self, tiny_cluster):
        tiny_cluster.allocate("x", [(1, 1, 4)])
        free = FreeState.of(tiny_cluster)
        assert place_gpu_job(_gpu_job(num_nodes=2, gpus_per_node=2), free) is None

    def test_among_restricts_candidates(self, tiny_cluster):
        free = FreeState.of(tiny_cluster)
        placements = place_gpu_job(_gpu_job(), free, among={1})
        assert placements[0][0] == 1

    def test_returns_none_when_full(self, tiny_cluster):
        tiny_cluster.allocate("x", [(0, 2, 4), (1, 2, 4)])
        free = FreeState.of(tiny_cluster)
        assert place_gpu_job(_gpu_job(), free) is None


class TestPlaceCpuJob:
    def test_best_fit_on_cores(self, tiny_cluster):
        tiny_cluster.allocate("x", [(0, 20, 0)])
        free = FreeState.of(tiny_cluster)
        placements = place_cpu_job(_cpu_job(cores=4), free)
        assert placements == [(0, 4, 0)]

    def test_none_when_no_cores(self, tiny_cluster):
        tiny_cluster.allocate("x", [(0, 28, 0), (1, 28, 0)])
        free = FreeState.of(tiny_cluster)
        assert place_cpu_job(_cpu_job(), free) is None

    def test_among(self, tiny_cluster):
        free = FreeState.of(tiny_cluster)
        placements = place_cpu_job(_cpu_job(), free, among={1})
        assert placements[0][0] == 1


class TestHealthAwarePlacement:
    """FreeState with ``now`` consults the cluster's health tracker:
    quarantined nodes offer zero capacity; suspect/probation nodes are
    only used when no healthy node fits."""

    def _quarantine(self, cluster, node_id, at=0.0):
        for i in range(3):
            cluster.health.record_failure(node_id, at + i, kind="crash")

    def test_quarantined_node_offers_no_capacity(self, tiny_cluster):
        self._quarantine(tiny_cluster, 0)
        free = FreeState.of(tiny_cluster, now=10.0)
        assert free.free_of(0) == (0, 0)
        assert free.free_of(1) == (28, 4)

    def test_gpu_job_skips_quarantined_node(self, tiny_cluster):
        self._quarantine(tiny_cluster, 0)
        free = FreeState.of(tiny_cluster, now=10.0)
        placements = place_gpu_job(_gpu_job(), free)
        assert placements[0][0] == 1

    def test_cpu_job_skips_quarantined_node(self, tiny_cluster):
        self._quarantine(tiny_cluster, 1)
        free = FreeState.of(tiny_cluster, now=10.0)
        placements = place_cpu_job(_cpu_job(), free)
        assert placements[0][0] == 0

    def test_all_nodes_quarantined_places_nothing(self, tiny_cluster):
        self._quarantine(tiny_cluster, 0)
        self._quarantine(tiny_cluster, 1)
        free = FreeState.of(tiny_cluster, now=10.0)
        assert place_gpu_job(_gpu_job(), free) is None
        assert place_cpu_job(_cpu_job(), free) is None

    def test_suspect_node_deprioritized_not_excluded(self, tiny_cluster):
        # One strike: node 0 is SUSPECT.  Best-fit alone would pick it
        # (equal free resources, lowest id); the penalty flips the choice.
        tiny_cluster.health.record_failure(0, 0.0, kind="crash")
        free = FreeState.of(tiny_cluster, now=10.0)
        assert free.placement_penalty(0) == 1
        assert free.placement_penalty(1) == 0
        assert place_gpu_job(_gpu_job(), free)[0][0] == 1
        assert place_cpu_job(_cpu_job(), free)[0][0] == 1

    def test_suspect_node_still_used_as_last_resort(self, tiny_cluster):
        tiny_cluster.health.record_failure(0, 0.0, kind="crash")
        tiny_cluster.allocate("x", [(1, 28, 4)])  # node 1 is full
        free = FreeState.of(tiny_cluster, now=10.0)
        assert place_gpu_job(_gpu_job(), free)[0][0] == 0

    def test_without_now_health_is_ignored(self, tiny_cluster):
        self._quarantine(tiny_cluster, 0)
        free = FreeState.of(tiny_cluster)
        assert free.free_of(0) == (28, 4)

    def test_healthy_cluster_penalties_are_zero(self, tiny_cluster):
        free = FreeState.of(tiny_cluster, now=10.0)
        assert free.placement_penalty(0) == 0
        assert free.placement_penalty(1) == 0


class TestFreeStateMemo:
    """The whole-cluster snapshot is memoized incrementally: full
    rebuilds only for unattributed (coarse) changes, a partial refresh
    of just the dirtied nodes for attributed mutations, and byte-for-byte
    reuse otherwise — pure health-ordering changes included, since the
    de-prioritized set is read fresh on every call."""

    def test_repeat_snapshot_reuses_scan(self, tiny_cluster):
        FreeState.of(tiny_cluster, now=0.0)
        before = FreeState.rebuilds
        again = FreeState.of(tiny_cluster, now=0.0)
        assert FreeState.rebuilds == before
        assert again.free_of(0) == (28, 4)

    def test_mutation_refreshes_only_touched_nodes(self, tiny_cluster):
        FreeState.of(tiny_cluster, now=0.0)
        rebuilds = FreeState.rebuilds
        refreshes = FreeState.refreshes
        tiny_cluster.allocate("x", [(0, 4, 1)])
        fresh = FreeState.of(tiny_cluster, now=0.0)
        # An attributed mutation partially refreshes the cache (node 0
        # only) instead of rebuilding the whole snapshot.
        assert FreeState.rebuilds == rebuilds
        assert FreeState.refreshes == refreshes + 1
        assert fresh.free_of(0) == (24, 3)
        assert fresh.free_of(1) == (28, 4)
        FreeState.of(tiny_cluster, now=0.0)
        assert FreeState.refreshes == refreshes + 1  # second call reuses

    def test_cached_snapshots_are_independent(self, tiny_cluster):
        first = FreeState.of(tiny_cluster, now=0.0)
        first.commit([(0, 8, 2)])
        second = FreeState.of(tiny_cluster, now=0.0)
        # A cache hit must hand back the *pre-commit* free capacity: the
        # commit mutated the first snapshot, never the shared cache.
        assert second.free_of(0) == (28, 4)

    def test_health_strike_swaps_penalties_without_rescan(self, tiny_cluster):
        FreeState.of(tiny_cluster, now=0.0)
        rebuilds = FreeState.rebuilds
        refreshes = FreeState.refreshes
        tiny_cluster.health.record_failure(0, 0.0, kind="crash")
        flagged = FreeState.of(tiny_cluster, now=0.0)
        # A SUSPECT transition changes best-fit ordering, not capacity:
        # the cached free map is reused and no node is read.
        assert FreeState.rebuilds == rebuilds
        assert FreeState.refreshes == refreshes
        assert flagged.placement_penalty(0) == 1
        assert flagged.placement_penalty(1) == 0

    def test_quarantine_refreshes_the_quarantined_node(self, tiny_cluster):
        FreeState.of(tiny_cluster, now=0.0)
        rebuilds = FreeState.rebuilds
        for i in range(3):
            tiny_cluster.health.record_failure(0, float(i), kind="crash")
        gated = FreeState.of(tiny_cluster, now=10.0)
        # Quarantine zeroes the node's offered capacity; only the nodes
        # entering/leaving the quarantine set are re-read.
        assert FreeState.rebuilds == rebuilds
        assert gated.free_of(0) == (0, 0)
        assert gated.free_of(1) == (28, 4)

    def test_now_change_alone_reuses_cache(self, tiny_cluster):
        FreeState.of(tiny_cluster, now=0.0)
        before = FreeState.rebuilds
        later = FreeState.of(tiny_cluster, now=30.0)
        # Free capacity is time-independent; with no health transitions
        # between the two instants the snapshot is identical.
        assert FreeState.rebuilds == before
        assert later.free_of(0) == (28, 4)

    def test_among_bypasses_cache(self, tiny_cluster):
        FreeState.of(tiny_cluster, now=0.0)
        before = FreeState.rebuilds
        restricted = FreeState.of(tiny_cluster, among=[1], now=0.0)
        assert FreeState.rebuilds == before + 1
        assert restricted.node_ids() == [1]

    def test_full_rescan_env_bypasses_cache(self, tiny_cluster, monkeypatch):
        monkeypatch.setenv("REPRO_REFERENCE", "1")
        # Policies sample the env var once, in their pass gate, and hand
        # the answer to every FreeState.of call.
        reference = not PassGate(("any",)).enabled
        FreeState.of(tiny_cluster, now=0.0, reference=reference)
        before = FreeState.rebuilds
        fresh = FreeState.of(tiny_cluster, now=0.0, reference=reference)
        assert FreeState.rebuilds == before + 1
        assert fresh.free_of(0) == (28, 4)

    def test_snapshot_does_not_read_the_env(self, tiny_cluster, monkeypatch):
        FreeState.of(tiny_cluster, now=0.0)
        monkeypatch.setenv("REPRO_REFERENCE", "1")
        before = FreeState.rebuilds
        FreeState.of(tiny_cluster, now=0.0)
        assert FreeState.rebuilds == before
