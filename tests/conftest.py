"""Shared fixtures.

The suite runs with the result cache disabled (``REPRO_NO_CACHE``) so no
test reads another's — or a previous working-tree run's — cached results;
cache-specific tests opt back in with explicit ``ResultCache`` roots
under tmp_path.

The sweep supervisor parks idle workers between batches; every test
starts with none parked, so its launch counts and chaos environment are
its own.
"""

from __future__ import annotations

import os

import pytest

os.environ.setdefault("REPRO_NO_CACHE", "1")

from repro.cluster.cluster import Cluster  # noqa: E402
from repro.config import ClusterConfig, NodeConfig, small_cluster  # noqa: E402
from repro.sim.engine import Engine  # noqa: E402
from repro.sweep import stop_idle_workers  # noqa: E402


@pytest.fixture(autouse=True)
def _no_parked_workers() -> None:
    stop_idle_workers()


@pytest.fixture
def engine() -> Engine:
    return Engine()


@pytest.fixture
def tiny_cluster() -> Cluster:
    """Two 4-GPU nodes, 28 cores each."""
    return Cluster(small_cluster(nodes=2, gpus_per_node=4))


@pytest.fixture
def mixed_cluster() -> Cluster:
    """Three 4-GPU nodes plus one 8-GPU node."""
    return Cluster(
        ClusterConfig(
            node_groups=(
                (3, NodeConfig(gpus=4)),
                (1, NodeConfig(gpus=8)),
            )
        )
    )
