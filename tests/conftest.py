"""Shared fixtures: tiny datasets, clusters, and partitions.

Session-scoped where safe (datasets and partitions are immutable); models
and contexts are rebuilt per test because they carry trainable state.
The session also ends with a leak check: nothing it started is left.
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

import repro.parallel
from repro.cluster import multi_machine_cluster, single_machine_cluster
from repro.graph.datasets import small_dataset
from repro.graph.partition import metis_like_partition


@pytest.fixture(scope="session", autouse=True)
def nothing_left_running():
    """After the last test and ``repro.parallel.shutdown()``, no worker
    process runs."""
    yield
    repro.parallel.shutdown()
    children = multiprocessing.active_children()
    assert not children, f"processes left: {[p.pid for p in children]}"


@pytest.fixture(scope="session")
def tiny_dataset():
    """~1.5k-node community graph with learnable labels."""
    return small_dataset(n=1500, feature_dim=16, num_classes=4, seed=7)


@pytest.fixture(scope="session")
def tiny_parts(tiny_dataset):
    return metis_like_partition(tiny_dataset.graph, 4, seed=0)


@pytest.fixture(scope="session")
def tiny_parts_8(tiny_dataset):
    return metis_like_partition(tiny_dataset.graph, 8, seed=0)


@pytest.fixture
def cluster4(tiny_dataset):
    """4 GPUs, one machine, cache covering ~6% of the features per GPU."""
    return single_machine_cluster(
        4, gpu_cache_bytes=tiny_dataset.feature_bytes * 0.06
    )


@pytest.fixture
def cluster_2x2(tiny_dataset):
    """2 machines x 2 GPUs."""
    return multi_machine_cluster(
        2, 2, gpu_cache_bytes=tiny_dataset.feature_bytes * 0.06
    )


@pytest.fixture
def rng():
    return np.random.default_rng(0)
