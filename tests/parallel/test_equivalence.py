"""Bit-identity of the process execution backend against serial.

The contract (DESIGN.md §5.10): the backend moves *host* work around —
losses, parameters, and every simulated Timeline charge must be exactly
identical, for every strategy, at every prefetch depth.
"""

import numpy as np
import pytest

from repro.cluster import multi_machine_cluster
from repro.config import APTConfig
from repro.core import APT
from repro.engine.base import split_round_robin
from repro.engine.context import ExecutionContext
from repro.models import GraphSAGE
from repro.parallel import backend as backend_module
from repro.parallel.backend import (
    ProcessPoolBackend,
    SerialBackend,
    make_backend,
    shutdown,
)

#: every single strategy, the GDPxSNP hybrid, and a mixed per-layer
#: composition — the backend contract holds for all of them
STRATEGIES = ("gdp", "nfp", "snp", "dnp", "hyb", "layerwise:gdp,snp")


def _run(
    ds,
    backend,
    strategy,
    epochs=2,
    prefetch_depth=2,
    numerics=True,
):
    model = GraphSAGE(ds.feature_dim, 8, ds.num_classes, 2, seed=1)
    cluster = multi_machine_cluster(
        2, 2, gpu_cache_bytes=ds.feature_bytes * 0.06
    )
    config = APTConfig(
        fanouts=(4, 4),
        global_batch_size=128,
        seed=0,
        execution_backend=backend,
        num_workers=2,
        prefetch_depth=prefetch_depth,
    )
    apt = APT(ds, model, cluster, config)
    apt.prepare()
    report = apt.run_strategy(strategy, epochs, numerics=numerics)
    return report, model


def _epoch_facts(report):
    return (
        [e.mean_loss for e in report.result.epochs],
        [e.phases for e in report.result.epochs],
        [e.num_batches for e in report.result.epochs],
    )


def _assert_states_equal(ma, mb):
    sa, sb = ma.state_dict(), mb.state_dict()
    assert sa.keys() == sb.keys()
    for k in sa:
        np.testing.assert_array_equal(sa[k], sb[k])


class TestBitIdentity:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_losses_params_and_timeline(self, tiny_dataset, strategy):
        r_serial, m_serial = _run(tiny_dataset, "serial", strategy)
        r_proc, m_proc = _run(tiny_dataset, "process", strategy)
        assert _epoch_facts(r_serial) == _epoch_facts(r_proc)
        _assert_states_equal(m_serial, m_proc)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_timing_only_timeline(self, tiny_dataset, strategy):
        r_serial, _ = _run(tiny_dataset, "serial", strategy, epochs=1, numerics=False)
        r_proc, _ = _run(tiny_dataset, "process", strategy, epochs=1, numerics=False)
        assert [e.phases for e in r_serial.result.epochs] == [
            e.phases for e in r_proc.result.epochs
        ]

    @pytest.mark.parametrize("depth", (0, 1, 4))
    def test_any_prefetch_depth(self, tiny_dataset, depth):
        r_serial, m_serial = _run(tiny_dataset, "serial", "gdp")
        r_proc, m_proc = _run(tiny_dataset, "process", "gdp", prefetch_depth=depth)
        assert _epoch_facts(r_serial) == _epoch_facts(r_proc)
        _assert_states_equal(m_serial, m_proc)

    @pytest.mark.parametrize("strategy", ("gdp", "nfp", "snp", "dnp"))
    def test_reused_workers_match_fresh_ones(self, tiny_dataset, strategy):
        # Run n+1 on the workers run n left idle: a lease carries nothing
        # from one run to the next.
        shutdown()
        r_fresh, m_fresh = _run(tiny_dataset, "process", strategy)
        workers = backend_module._IDLE
        r_again, m_again = _run(tiny_dataset, "process", strategy)
        assert backend_module._IDLE is workers and not workers.closed
        assert _epoch_facts(r_fresh) == _epoch_facts(r_again)
        _assert_states_equal(m_fresh, m_again)


class TestPipelineTelemetry:
    def test_pipeline_event_and_counters(self, tiny_dataset):
        report, _ = _run(tiny_dataset, "process", "gdp")
        events = report.collector.events_of("pipeline")
        assert len(events) == 2  # one per epoch
        data = events[0].data
        assert data["backend"] == "process"
        assert data["workers"] == 2
        assert data["prefetch_hits"] >= 1
        assert data["host_wall_seconds"] > 0.0
        assert 0.0 <= data["worker_utilization"]

    def test_depth_zero_runs_sync(self, tiny_dataset):
        report, _ = _run(tiny_dataset, "process", "gdp", prefetch_depth=0)
        data = report.collector.events_of("pipeline")[0].data
        assert data.get("prefetch_hits", 0) == 0
        assert data["sync_batches"] >= 1


class TestUnplannedFallback:
    def test_out_of_schedule_batch_matches_serial(self, tiny_dataset):
        model = GraphSAGE(
            tiny_dataset.feature_dim, 8, tiny_dataset.num_classes, 2, seed=1
        )
        cluster = multi_machine_cluster(
            2, 2, gpu_cache_bytes=tiny_dataset.feature_bytes * 0.06
        )
        backend = ProcessPoolBackend(tiny_dataset, num_workers=1, prefetch_depth=2)
        try:
            ctx = ExecutionContext.build(
                tiny_dataset, cluster, model, [4, 4],
                global_batch_size=128, backend=backend,
            )
            seeds = split_round_robin(np.arange(64, dtype=np.int64), 4)
            # No begin_epoch announcement: the backend must fall back to an
            # unplanned synchronous submission and still be bit-identical.
            got = backend.sample_device_chunks(ctx, seeds, epoch=0)
            want = SerialBackend().sample_device_chunks(ctx, seeds, epoch=0)
            assert backend.stats().get("unplanned_batches") == 1
            for mb_got, mb_want in zip(got, want):
                assert (mb_got is None) == (mb_want is None)
                if mb_got is None:
                    continue
                np.testing.assert_array_equal(mb_got.seeds, mb_want.seeds)
                assert len(mb_got.blocks) == len(mb_want.blocks)
                for bg, bw in zip(mb_got.blocks, mb_want.blocks):
                    np.testing.assert_array_equal(bg.src_nodes, bw.src_nodes)
                    np.testing.assert_array_equal(bg.dst_nodes, bw.dst_nodes)
                    np.testing.assert_array_equal(bg.dst_in_src, bw.dst_in_src)
                    np.testing.assert_array_equal(bg.edge_src, bw.edge_src)
                    np.testing.assert_array_equal(bg.edge_dst, bw.edge_dst)
        finally:
            backend.close()


class TestBackendFactory:
    def test_serial_default(self, tiny_dataset, monkeypatch):
        monkeypatch.delenv("REPRO_EXECUTION_BACKEND", raising=False)
        backend = make_backend(APTConfig(), tiny_dataset)
        assert backend.name == "serial"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            APTConfig(execution_backend="threads").validate()

    def test_close_is_idempotent(self, tiny_dataset):
        backend = ProcessPoolBackend(tiny_dataset, num_workers=1)
        backend.close()
        backend.close()
