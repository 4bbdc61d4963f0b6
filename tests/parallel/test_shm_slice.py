"""Worker export of in-RAM and out-of-core datasets (DESIGN.md §5.14).

Workers sample and never read a feature, so the shared-memory segment
holds only the topology — for an in-RAM and a memory-mapped feature
matrix alike — and the process backend stays loss bit-identical to the
serial one on a disk-backed dataset.
"""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.cluster import multi_machine_cluster
from repro.config import APTConfig
from repro.core import APT
from repro.graph import open_streaming_dataset, write_dataset_dir
from repro.graph.datasets import small_dataset
from repro.models import GraphSAGE
from repro.parallel.shm import attach_task_data, export_task_data


@pytest.fixture(scope="module")
def ram_ds():
    return small_dataset(n=400, feature_dim=8, num_classes=2)


@pytest.fixture(scope="module")
def disk_ds(ram_ds, tmp_path_factory):
    out = write_dataset_dir(ram_ds, tmp_path_factory.mktemp("shm") / "ds")
    return open_streaming_dataset(out)


@pytest.mark.parametrize("which", ["ram", "disk"])
def test_export_holds_only_the_topology(which, request):
    ds = request.getfixturevalue(f"{which}_ds")
    export = export_task_data(ds)
    try:
        desc = export.descriptor
        topo = desc.indptr.nbytes + desc.indices.nbytes
        assert 0 <= export.segment.size - topo < 16  # 8-byte alignment only
    finally:
        export.close()


class TestMemmapExport:
    def test_disk_backed_features_export_as_memmap_spec(self, disk_ds):
        # A memory-mapped feature matrix is neither copied nor named in
        # the descriptor: workers map the graph and nothing else...
        export = export_task_data(disk_ds)
        try:
            assert isinstance(disk_ds.features, np.memmap)
            fields = {f.name for f in dataclasses.fields(export.descriptor)}
            assert fields == {"segment_name", "num_nodes", "indptr", "indices"}
            # ...yet the export still serves this dataset only.
            assert export.covers(disk_ds)
        finally:
            export.close()

    def test_attach_round_trip_bit_identical(self, disk_ds):
        export = export_task_data(disk_ds)
        try:
            segment, graph = attach_task_data(export.descriptor)
            try:
                assert graph.num_nodes == export.descriptor.num_nodes
                np.testing.assert_array_equal(graph.indptr, disk_ds.graph.indptr)
                np.testing.assert_array_equal(graph.indices, disk_ds.graph.indices)
            finally:
                del graph
                segment.close()
        finally:
            export.close()

    def test_spec_is_picklable(self, disk_ds):
        export = export_task_data(disk_ds)
        try:
            desc = pickle.loads(pickle.dumps(export.descriptor))
            assert desc == export.descriptor
            segment, graph = attach_task_data(desc)
            try:
                np.testing.assert_array_equal(graph.indices, disk_ds.graph.indices)
            finally:
                del graph
                segment.close()
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
