"""The batch load-set stage equals the frozen per-device one, bit for bit.

``repro.engine.base.record_loads`` classifies every device's load set in
one pass (:meth:`UnifiedFeatureStore.classify`), adds the row matrix to the
recorder and counts it into telemetry; ``charge_loads`` charges each
device's row.  ``tests/ledger_reference.py`` keeps the per-device
classify / record_load / charge_load they replaced.  Over {RAM, disk} ×
{1 machine, 2 machines} × {NVLink, none} × {``dim_fraction`` 1, 1/C}, a run
of batches must give the same tier of every row, rows per device and tier,
disk ranged reads, promotions (every ``disk_stats`` counter, the resident
set and the hotness counts), reports, Timeline load cells and telemetry
counters.  Promotions fire every third observation, so they land on every
device position of a batch and reclassify the later devices' rows; the
caches are replaced midway.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.cluster import ClusterSpec, LinkSpec, MachineSpec, Timeline
from repro.engine.base import charge_loads, record_loads
from repro.engine.context import ExecutionContext, VolumeRecorder
from repro.featurestore import TIERS, UnifiedFeatureStore
from repro.graph import open_streaming_dataset, write_streaming_dataset
from repro.obs.telemetry import TelemetryCollector
from tests import ledger_reference as reference

NUM_BATCHES = 24


@pytest.fixture(scope="module")
def datasets(tmp_path_factory):
    disk = open_streaming_dataset(write_streaming_dataset(
        tmp_path_factory.mktemp("ds") / "d", num_nodes=600, feature_dim=8,
        num_classes=3, seed=4,
    ))
    return {"ram": replace(disk, features=np.array(disk.features)), "disk": disk}


def build_cluster(machines: int, nvlink: bool) -> ClusterSpec:
    link = LinkSpec(bandwidth=300e9, latency=2e-6) if nvlink else None
    gpus = 4 // machines
    return ClusterSpec(
        machines=tuple(MachineSpec(num_gpus=gpus, nvlink=link) for _ in range(machines))
    )


def configure_caches(store, seed: int, dim_fraction: float) -> None:
    rng = np.random.default_rng(seed)
    store.configure_caches(
        [rng.choice(store.dataset.num_nodes, size=90, replace=False)
         for _ in range(store.cluster.num_devices)],
        dim_fraction=dim_fraction,
    )


def build_store(ds, cluster, dim_fraction: float) -> UnifiedFeatureStore:
    rng = np.random.default_rng(11)
    node_machine = rng.integers(0, cluster.num_machines, size=ds.num_nodes)
    store = UnifiedFeatureStore(ds, cluster, node_machine=node_machine)
    configure_caches(store, 12, dim_fraction)
    if store.disk_tier_active:
        store.configure_disk_tier(
            promote_bytes=120 * ds.feature_dim * 8, promote_every=3
        )
    return store


def load_sets(num_nodes: int, num_devices: int):
    """Per batch, each device's sorted distinct ids; some devices read
    nothing and one reads an empty set."""
    rng = np.random.default_rng(5)
    batches = []
    for b in range(NUM_BATCHES):
        sets = []
        for d in range(num_devices):
            if rng.random() < 0.2:
                sets.append(None)
            elif b == 3 and d == 1:
                sets.append(np.empty(0, dtype=np.int64))
            else:
                size = int(rng.integers(1, 160))
                # Skewed draws so some rows turn hot and get promoted.
                ids = (rng.pareto(1.2, size) * 40).astype(np.int64) % num_nodes
                sets.append(np.unique(ids))
        batches.append(sets)
    return batches


def hexed(value):
    if isinstance(value, dict):
        return [(k, hexed(v)) for k, v in value.items()]
    return float(value).hex()


@pytest.mark.parametrize("dim_fraction", ["1", "1/C"])
@pytest.mark.parametrize("nvlink", [False, True], ids=["pcie", "nvlink"])
@pytest.mark.parametrize("machines", [1, 2])
@pytest.mark.parametrize("storage", ["ram", "disk"])
def test_batch_stage_matches_per_device_reference(
    datasets, monkeypatch, storage, machines, nvlink, dim_fraction
):
    ds = datasets[storage]
    cluster = build_cluster(machines, nvlink)
    C = cluster.num_devices
    fraction = 1.0 if dim_fraction == "1" else 1.0 / C

    ref_store = build_store(ds, cluster, fraction)
    ref_ledger = reference.Ledger(C)
    ref_telemetry = TelemetryCollector()
    ref_timeline = Timeline(C)

    store = build_store(ds, cluster, fraction)
    ctx = ExecutionContext(
        dataset=ds, cluster=cluster, model=None, sampler=None, store=store,
        timeline=Timeline(C), comm=None, charger=None,
        recorder=VolumeRecorder(C), telemetry=TelemetryCollector(),
    )
    reports = []
    charge_load = UnifiedFeatureStore.charge_load

    def keeping_charge_load(store, device, *args, **kwargs):
        reports.append((device, charge_load(store, device, *args, **kwargs)))
        return reports[-1][1]

    monkeypatch.setattr(UnifiedFeatureStore, "charge_load", keeping_charge_load)

    for b, sets in enumerate(load_sets(ds.num_nodes, C)):
        if b == NUM_BATCHES // 2:
            # New cache sets midway, as a serving cache refresh installs.
            for s in (ref_store, store):
                configure_caches(s, 13, fraction)
        ref_splits = reference.record_loads(ref_store, ref_ledger, ref_telemetry, sets)
        split = record_loads(ctx, sets)
        for d, want in enumerate(ref_splits):
            if want is None:
                assert split[d] is None
                continue
            ids = split.node_ids[split.ptr[d]:split.ptr[d + 1]]
            tiers = split.tiers[split.ptr[d]:split.ptr[d + 1]]
            for col, tier in enumerate(TIERS):
                np.testing.assert_array_equal(ids[tiers == col], want[tier])
        want_reports = [
            (d, reference.charge_load(ref_store, d, s, ref_timeline))
            for d, s in enumerate(ref_splits) if s is not None
        ]
        reports.clear()
        charge_loads(ctx, split)
        assert [d for d, _ in reports] == [d for d, _ in want_reports]
        for (_, got), (_, want) in zip(reports, want_reports):
            assert got.rows == want["rows"]
            assert hexed(got.bytes) == hexed(want["bytes"])
            assert got.seconds.hex() == want["seconds"].hex()
            assert got.ranged_reads == want["ranged_reads"]
        ref_timeline.end_batch()
        ctx.timeline.end_batch()

    want_rows = np.array([[rows[t] for t in TIERS] for rows in ref_ledger.load_rows])
    assert ctx.recorder.load_rows.tobytes() == want_rows.tobytes()
    assert ctx.recorder.disk_ranged_reads.tobytes() == ref_ledger.disk_ranged_reads.tobytes()
    assert hexed(store.disk_stats) == hexed(ref_store.disk_stats)
    for key, value in ref_timeline.state_dict().items():
        if isinstance(value, np.ndarray):
            assert ctx.timeline.state_dict()[key].tobytes() == value.tobytes(), key
    assert hexed(ctx.telemetry.counters) == hexed(ref_telemetry.counters)
    if storage == "disk":
        assert store._disk_pos.tobytes() == ref_store._disk_pos.tobytes()
        assert store._disk_hot.tobytes() == ref_store._disk_hot.tobytes()
        assert store._disk_classify_calls == ref_store._disk_classify_calls
        assert store.disk_stats["refreshes"] > 0 and store.disk_stats["ranged_reads"] > 0
    if nvlink:
        assert ctx.recorder.total_load_rows(TIERS[1]) > 0
