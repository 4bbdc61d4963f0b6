"""Inventory of the options the package exposes.

Every ``REPRO_*`` variable and every config field is an option that tests
and benchmarks must cover, so both sets are pinned: a new one fails here
until the matching list is edited on purpose.
"""

import dataclasses
import re
from pathlib import Path

import numpy as np

import repro
from repro.cluster import single_machine_cluster
from repro.config import APTConfig, ServeConfig
from repro.featurestore import UnifiedFeatureStore
from repro.featurestore.store import DISK_PROMOTE_MB
from repro.graph import open_streaming_dataset, write_dataset_dir
from repro.graph.datasets import small_dataset
from repro.parallel.supervisor import FaultPolicy

#: the four variables a CI leg sets for a whole suite
KNOBS = {
    "REPRO_EXECUTION_BACKEND",
    "REPRO_NUM_WORKERS",
    "REPRO_CHAOS",
    "REPRO_TASK_DEADLINE_S",
}

APT_CONFIG_FIELDS = {
    "fanouts", "global_batch_size", "partition", "seed",
    "cpu_sampling", "overlap",
    "execution_backend", "num_workers", "prefetch_depth",
    "disk_promote_mb",
    "fault_policy", "host_chaos",
    "checkpoint_dir", "checkpoint_every", "checkpoint_keep",
    "elastic",
    "telemetry", "replan", "drift_threshold", "strategies", "replan_cooldown",
}

FAULT_POLICY_FIELDS = {
    "task_deadline_s", "max_retries", "failure_budget",
    "backoff_base_s", "backoff_max_s", "drain_timeout_s",
}

SERVE_CONFIG_FIELDS = {
    "max_batch_size", "max_wait_s", "cache_policy",
    "drift_threshold", "drift_window",
}


def _names(cls):
    return {f.name for f in dataclasses.fields(cls)}


def test_env_knobs_are_the_pinned_set():
    package = Path(repro.__file__).parent
    found = set()
    for path in package.rglob("*.py"):
        found.update(re.findall(r"REPRO_[A-Z_]+", path.read_text(encoding="utf-8")))
    assert found == KNOBS


def test_config_fields_are_the_pinned_sets():
    assert _names(APTConfig) == APT_CONFIG_FIELDS
    assert _names(FaultPolicy) == FAULT_POLICY_FIELDS
    assert _names(ServeConfig) == SERVE_CONFIG_FIELDS


def test_disk_promote_budget_is_a_plain_default(monkeypatch, tmp_path):
    """The retired ``REPRO_DISK_PROMOTE_MB`` moves nothing: the config's
    value is what a checkpoint digests and what the store uses."""
    monkeypatch.setenv("REPRO_DISK_PROMOTE_MB", "1")
    assert APTConfig().to_dict()["disk_promote_mb"] == DISK_PROMOTE_MB == 64
    ds = open_streaming_dataset(
        write_dataset_dir(small_dataset(n=64, feature_dim=4), tmp_path / "d")
    )
    store = UnifiedFeatureStore(ds, single_machine_cluster(1))
    row_bytes = ds.feature_dim * np.dtype(np.float64).itemsize
    assert store._promote_capacity == DISK_PROMOTE_MB * 2**20 // row_bytes
