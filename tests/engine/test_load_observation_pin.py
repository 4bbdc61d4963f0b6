"""One tier split per batch (DESIGN.md §5.14, §5.19).

The load-set stage (``repro.engine.base.record_loads``) classifies every
device's load set in one ``UnifiedFeatureStore.classify`` call per batch;
the plan carries that split and ``UnifiedFeatureStore.charge_load``
charges each device's row of it.  So, for every strategy, on an in-RAM
and a memory-mapped store, with numerics on and off:

* a dry-run epoch and a training epoch of the same batches classify
  equally often — once per batch — and on a disk-backed store observe the
  disk tier (advance its promotion clock) once per device-batch that has a
  load set, as often in both;
* the rows the recorder adds for a device-batch are the rows of the
  ``LoadReport`` charged for it, even when a promotion happened between
  the plan and the charge;
* serving classifies once per batch and charges as it recorded too.
"""

from collections import Counter, defaultdict
from dataclasses import replace

import numpy as np
import pytest

from repro.cluster import multi_machine_cluster
from repro.config import APTConfig, ServeConfig
from repro.core import APT
from repro.engine.context import VolumeRecorder
from repro.featurestore import TIERS, UnifiedFeatureStore
from repro.graph import open_streaming_dataset, write_streaming_dataset
from repro.models import GraphSAGE
from repro.serve import LoadGenerator, ServeEngine

STRATEGIES = ("gdp", "nfp", "snp", "dnp", "hyb", "layerwise:gdp,snp")


@pytest.fixture(scope="module")
def datasets(tmp_path_factory):
    """The same streaming dataset, memory-mapped and copied into RAM.  A
    1 MiB promotion budget holds about half of its rows, and an epoch
    classifies often enough to promote between a plan and its charge."""
    disk = open_streaming_dataset(write_streaming_dataset(
        tmp_path_factory.mktemp("ds") / "d", num_nodes=4000, feature_dim=64,
        num_classes=4, train_fraction=0.25, seed=3,
    ))
    return {"ram": replace(disk, features=np.array(disk.features)), "disk": disk}


def build_apt(ds):
    cluster = multi_machine_cluster(2, 2, gpu_cache_bytes=ds.feature_bytes * 0.05)
    model = GraphSAGE(ds.feature_dim, 8, ds.num_classes, 2, seed=1)
    config = APTConfig(fanouts=(3, 3), global_batch_size=64, seed=0,
                       disk_promote_mb=1)
    return APT(ds, model, cluster, config)


class Spy:
    """Counts classifications, the device-batches they split and disk
    observations; keeps each device's recorded and charged row counts, in
    order."""

    def __init__(self, monkeypatch):
        self.calls = Counter()
        self.recorded = defaultdict(list)
        self.charged = defaultdict(list)
        classify = UnifiedFeatureStore.classify
        observe = UnifiedFeatureStore._observe_disk
        charge_load = UnifiedFeatureStore.charge_load
        record_loads = VolumeRecorder.record_loads

        def counting_classify(store, *args, **kwargs):
            split = classify(store, *args, **kwargs)
            self.calls["classify"] += 1
            self.calls["device_batches"] += sum(
                load is not None for load in split.loads
            )
            return split

        def counting_observe(store, *args, **kwargs):
            self.calls["observe"] += 1
            return observe(store, *args, **kwargs)

        def keeping_charge_load(store, device, *args, **kwargs):
            report = charge_load(store, device, *args, **kwargs)
            self.charged[device].append(dict(report.rows))
            return report

        def keeping_record_loads(recorder, split):
            self.calls["record"] += 1
            for d, load in enumerate(split.loads):
                if load is not None:
                    self.recorded[d].append(dict(zip(TIERS, split.rows[d].tolist())))
            return record_loads(recorder, split)

        monkeypatch.setattr(UnifiedFeatureStore, "classify", counting_classify)
        monkeypatch.setattr(UnifiedFeatureStore, "_observe_disk", counting_observe)
        monkeypatch.setattr(UnifiedFeatureStore, "charge_load", keeping_charge_load)
        monkeypatch.setattr(VolumeRecorder, "record_loads", keeping_record_loads)

    def reset(self) -> Counter:
        calls = self.calls.copy()
        self.calls.clear()
        self.recorded.clear()
        self.charged.clear()
        return calls

    def assert_charged_as_recorded(self) -> None:
        assert dict(self.charged) == dict(self.recorded)


@pytest.mark.parametrize("numerics", [True, False], ids=["numerics", "timing"])
@pytest.mark.parametrize("storage", ["ram", "disk"])
@pytest.mark.parametrize("name", STRATEGIES)
def test_dry_run_and_epoch_classify_once_per_device_batch(
    datasets, monkeypatch, name, storage, numerics
):
    apt = build_apt(datasets[storage])
    dryrun = apt.prepare().dryrun
    spy = Spy(monkeypatch)
    dryrun.run(name)
    planned = spy.reset()
    apt.run_strategy(name, 1, numerics=numerics)
    assert planned["device_batches"] > planned["record"] > 0
    assert spy.calls["classify"] == spy.calls["record"] == planned["record"]
    assert planned["classify"] == planned["record"]
    assert spy.calls["device_batches"] == planned["device_batches"]
    disk_reads = planned["device_batches"] if storage == "disk" else 0
    assert planned["observe"] == spy.calls["observe"] == disk_reads
    spy.assert_charged_as_recorded()


@pytest.mark.parametrize("storage", ["ram", "disk"])
@pytest.mark.parametrize("name", STRATEGIES)
def test_serve_classifies_once_per_device_batch(datasets, monkeypatch, name, storage):
    ds = datasets[storage]
    engine = ServeEngine(build_apt(ds), strategy=name,
                         config=ServeConfig(max_batch_size=16))
    requests = LoadGenerator(ds.num_nodes, seed=5, rate=2000.0, zipf_a=1.5).generate(48)
    spy = Spy(monkeypatch)
    engine.serve(requests)
    assert spy.calls["record"] > 0
    assert spy.calls["classify"] == spy.calls["record"]
    disk_reads = spy.calls["device_batches"] if storage == "disk" else 0
    assert spy.calls["observe"] == disk_reads
    spy.assert_charged_as_recorded()
