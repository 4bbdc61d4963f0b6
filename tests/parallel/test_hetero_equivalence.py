"""Determinism with uneven (speed-proportional) partitions.

Heterogeneous clusters give each device a different share of the graph;
sampling, shm export, the process backend, and replay must all carry the
uneven shapes unchanged (DESIGN.md §5.17): the process backend stays
bit-identical to serial, and the same config reproduces the same run.
"""

import numpy as np
import pytest

from repro.cluster import parse_cluster_spec
from repro.config import APTConfig
from repro.core import APT
from repro.models import GraphSAGE

STRATEGIES = ("gdp", "nfp", "snp", "dnp", "layerwise:gdp,snp")

#: 2-tier cluster: one fast/expensive machine, one slow/cheap one.
HET = "1x2:a100,1x2:t4"


def _run(ds, backend, strategy, epochs=2, numerics=True):
    model = GraphSAGE(ds.feature_dim, 8, ds.num_classes, 2, seed=1)
    cluster = parse_cluster_spec(
        HET, gpu_cache_bytes=ds.feature_bytes * 0.06
    )
    config = APTConfig(
        fanouts=(4, 4),
        global_batch_size=128,
        seed=0,
        execution_backend=backend,
        num_workers=2,
    )
    apt = APT(ds, model, cluster, config)
    apt.prepare()
    report = apt.run_strategy(strategy, epochs, numerics=numerics)
    return apt, report, model


def _epoch_facts(report):
    return (
        [e.mean_loss for e in report.result.epochs],
        [e.phases for e in report.result.epochs],
        [e.num_batches for e in report.result.epochs],
    )


class TestUnevenPartsFlow:
    def test_partition_is_speed_proportional(self, tiny_dataset):
        apt, _, _ = _run(tiny_dataset, "serial", "gdp", epochs=1)
        counts = np.bincount(apt.context.parts, minlength=4)
        assert counts[:2].min() > counts[2:].max()


class TestSerialProcessBitIdentity:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_losses_and_timeline(self, tiny_dataset, strategy):
        _, r_serial, m_serial = _run(tiny_dataset, "serial", strategy)
        _, r_proc, m_proc = _run(tiny_dataset, "process", strategy)
        assert _epoch_facts(r_serial) == _epoch_facts(r_proc)
        sa, sb = m_serial.state_dict(), m_proc.state_dict()
        assert sa.keys() == sb.keys()
        for k in sa:
            np.testing.assert_array_equal(sa[k], sb[k])

    def test_timing_only(self, tiny_dataset):
        _, r_serial, _ = _run(
            tiny_dataset, "serial", "dnp", epochs=1, numerics=False
        )
        _, r_proc, _ = _run(
            tiny_dataset, "process", "dnp", epochs=1, numerics=False
        )
        assert [e.phases for e in r_serial.result.epochs] == [
            e.phases for e in r_proc.result.epochs
        ]


class TestSameConfigSameDigest:
    @pytest.mark.parametrize("strategy", ("snp", "layerwise:gdp,snp"))
    def test_repeat_runs_identical(self, tiny_dataset, strategy):
        apt_a, r_a, m_a = _run(tiny_dataset, "serial", strategy)
        apt_b, r_b, m_b = _run(tiny_dataset, "serial", strategy)
        np.testing.assert_array_equal(apt_a.context.parts, apt_b.context.parts)
        assert _epoch_facts(r_a) == _epoch_facts(r_b)
        for k, v in m_a.state_dict().items():
            np.testing.assert_array_equal(v, m_b.state_dict()[k])
