"""Memmap slice export for out-of-core datasets (DESIGN.md §5.14).

Disk-backed feature matrices must never be copied into the shared-memory
segment — workers re-map the backing file read-only and the OS page cache
shares the physical pages.  These tests pin the descriptor shape, the
byte identity of the attached view, and end-to-end loss bit-identity of
the process backend on a disk-backed dataset.
"""

import numpy as np
import pytest

from repro.cluster import multi_machine_cluster
from repro.config import APTConfig
from repro.core import APT
from repro.graph import open_streaming_dataset, write_dataset_dir
from repro.graph.datasets import small_dataset
from repro.models import GraphSAGE
from repro.parallel.shm import (
    MemmapSpec,
    SharedFeatures,
    attach_task_data,
    export_task_data,
)


@pytest.fixture(scope="module")
def ram_ds():
    return small_dataset(n=400, feature_dim=8, num_classes=2)


@pytest.fixture(scope="module")
def disk_ds(ram_ds, tmp_path_factory):
    out = write_dataset_dir(ram_ds, tmp_path_factory.mktemp("shm") / "ds")
    return open_streaming_dataset(out)


class TestMemmapExport:
    def test_disk_backed_features_export_as_memmap_spec(self, disk_ds):
        export = export_task_data(disk_ds)
        try:
            desc = export.descriptor
            assert isinstance(desc.features, MemmapSpec)
            assert desc.features.shape == disk_ds.features.shape
            assert np.dtype(desc.features.dtype) == disk_ds.features.dtype
            # The segment holds only the topology — no feature bytes.
            topo = desc.indptr.nbytes + desc.indices.nbytes
            assert export.segment.size < topo + disk_ds.features.nbytes
            # ...and never will: workers map the file named above.
            assert export.share_features() is None
        finally:
            export.close()

    def test_in_ram_features_still_copied(self, ram_ds):
        # ...into a segment of their own, when a task will gather them.
        export = export_task_data(ram_ds)
        try:
            desc = export.descriptor
            assert desc.features is None
            topo = desc.indptr.nbytes + desc.indices.nbytes
            assert export.segment.size < topo + ram_ds.features.nbytes
            assert isinstance(export.share_features(), SharedFeatures)
        finally:
            export.close()

    def test_attach_round_trip_bit_identical(self, disk_ds):
        export = export_task_data(disk_ds)
        try:
            segment, graph, features = attach_task_data(export.descriptor)
            try:
                assert isinstance(features, np.memmap)
                assert not features.flags.writeable
                np.testing.assert_array_equal(
                    np.asarray(features), np.asarray(disk_ds.features)
                )
                np.testing.assert_array_equal(graph.indptr, disk_ds.graph.indptr)
                np.testing.assert_array_equal(graph.indices, disk_ds.graph.indices)
            finally:
                del graph, features
                segment.close()
        finally:
            export.close()

    def test_spec_is_picklable(self, disk_ds):
        import pickle

        export = export_task_data(disk_ds)
        try:
            desc = pickle.loads(pickle.dumps(export.descriptor))
            assert isinstance(desc.features, MemmapSpec)
            assert desc.features.path == export.descriptor.features.path
        finally:
            export.close()


class TestProcessBackendOutOfCore:
    def _losses(self, ds, backend):
        model = GraphSAGE(ds.feature_dim, 8, ds.num_classes, 2, seed=1)
        cluster = multi_machine_cluster(2, 2)
        apt = APT(ds, model, cluster, APTConfig(
            fanouts=(4, 4), global_batch_size=64, seed=0,
            execution_backend=backend, num_workers=2,
        ))
        apt.prepare()
        report = apt.run_strategy("gdp", 1)
        return (
            [e.mean_loss for e in report.result.epochs],
            model.state_dict(),
        )

    def test_process_backend_bit_identical_on_disk_dataset(self, disk_ds):
        serial_losses, serial_state = self._losses(disk_ds, "serial")
        proc_losses, proc_state = self._losses(disk_ds, "process")
        assert serial_losses == proc_losses
        for key in serial_state:
            np.testing.assert_array_equal(serial_state[key], proc_state[key])
