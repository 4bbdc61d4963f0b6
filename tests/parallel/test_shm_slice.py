"""Process-backend workers over an out-of-core dataset (DESIGN.md §5.14).

Workers are forked over the graph and sample from the pages they
inherited; they never read a feature, so a memory-mapped feature file
stays cold in every worker while the coordinator gathers rows from it —
and the process backend stays loss bit-identical to the serial one on a
disk-backed dataset.
"""

import os

import numpy as np
import pytest

import repro.parallel
from repro.cluster import multi_machine_cluster
from repro.config import APTConfig
from repro.core import APT
from repro.graph import open_streaming_dataset, write_dataset_dir
from repro.graph.datasets import small_dataset
from repro.graph.io import FEATURES_FILE
from repro.models import GraphSAGE
from repro.parallel import backend as backend_module


@pytest.fixture(scope="module")
def disk_ds(tmp_path_factory):
    ram_ds = small_dataset(n=400, feature_dim=8, num_classes=2)
    out = write_dataset_dir(ram_ds, tmp_path_factory.mktemp("ooc") / "ds")
    return open_streaming_dataset(out)


def _resident_kb(pid, filename):
    """Resident kB of every mapping of a file named ``filename`` in ``pid``."""
    total, inside = 0, False
    with open(f"/proc/{pid}/smaps") as fh:
        for line in fh:
            fields = line.split()
            if not fields[0].endswith(":"):  # a mapping's header line
                inside = os.path.basename(fields[-1]) == filename
            elif inside and fields[0] == "Rss:":
                total += int(fields[1])
    return total


class TestWorkersReadNoFeature:
    def test_no_worker_holds_a_resident_feature_page(self, disk_ds):
        assert isinstance(disk_ds.features, np.memmap)
        repro.parallel.shutdown()
        try:
            model = GraphSAGE(disk_ds.feature_dim, 8, disk_ds.num_classes, 2, seed=1)
            apt = APT(disk_ds, model, multi_machine_cluster(2, 2), APTConfig(
                fanouts=(4, 4), global_batch_size=64, seed=0,
                execution_backend="process", num_workers=2,
            ))
            apt.prepare()
            apt.run_strategy("gdp", 1)
            pids = [worker.process.pid for worker in backend_module._IDLE]
            assert len(pids) == 2
            # The coordinator gathered its rows from the file...
            assert _resident_kb(os.getpid(), FEATURES_FILE) > 0
            # ...and no worker touched a page of it.
            for pid in pids:
                assert _resident_kb(pid, FEATURES_FILE) == 0
        finally:
            repro.parallel.shutdown()


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
