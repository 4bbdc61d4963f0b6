"""The run object's own contracts (``repro.core.run.TrainingRun``).

Bit-identity of losses and phases is pinned by the replan / checkpoint /
elastic / chaos suites; this file pins what the run *exports*: a Chrome
trace that conserves every charged second across trainer rebuilds and
across checkpoint/resume, and exactly one ``prepare`` per trainer build.
"""

from collections import defaultdict

import pytest

from repro.cluster import multi_machine_cluster
from repro.cluster.faults import FaultEvent, FaultSchedule
from repro.cluster.timeline import PHASES
from repro.config import APTConfig
from repro.core import APT
from repro.engine.gdp import GDPStrategy
from repro.graph.datasets import small_dataset
from repro.models import GraphSAGE
from repro.serve import ServeEngine

DS = small_dataset(n=800, feature_dim=16, num_classes=4, seed=7)
N = 4


def _make_apt(**kw):
    kwargs = dict(fanouts=(4, 4), global_batch_size=256, seed=0)
    kwargs.update(kw)
    return APT(
        DS,
        GraphSAGE(16, 8, 4, 2, seed=1),
        multi_machine_cluster(2, 2),
        APTConfig(**kwargs),
    )


def _leave(epoch=2):
    return FaultSchedule([FaultEvent(epoch=epoch, kind="host_leave", machine=1)])


def _traced_seconds(events):
    """Summed ``dur`` per (device, phase) of exported events, in seconds."""
    total = defaultdict(float)
    for e in events:
        total[e["tid"], e["name"]] += e["dur"] / 1e6
    return total


class TestZeroEpochs:
    def test_run_strategy_rejects_zero_epochs(self):
        """No epoch means no trainer to report on: refused up front, the
        way resume refuses a checkpoint that covers every epoch."""
        with pytest.raises(ValueError, match="num_epochs must be >= 1, got 0"):
            _make_apt().run_strategy("gdp", 0)


class TestChromeTraceConservation:
    @pytest.mark.parametrize("faults", [None, _leave()], ids=["plain", "rebuilt"])
    def test_events_sum_to_the_ledgers(self, faults):
        result = _make_apt().run_strategy("dnp", N, faults=faults).result
        assert len(result.timelines) == (1 if faults is None else 2)
        charged = defaultdict(float)
        for timeline in result.timelines:
            for d in range(timeline.num_devices):
                for p in PHASES:
                    charged[d, p] += timeline.device_phase_seconds(d, p)
        traced = _traced_seconds(result.chrome_trace())
        assert set(traced) == {k for k, v in charged.items() if v > 0}
        for key, seconds in traced.items():
            assert seconds == pytest.approx(charged[key], rel=1e-12)

    def test_rebuilt_run_covers_every_epoch_on_one_clock(self):
        report = _make_apt().run_strategy("dnp", N, faults=_leave())
        events = report.result.chrome_trace()
        batches = sum(e.num_batches for e in report.epochs)
        assert {e["cat"] for e in events} == {f"batch{i}" for i in range(batches)}
        # the shrunken cluster's segment starts where the first one stopped
        first = report.result.timelines[0]
        late = [e for e in events if e["cat"] == f"batch{first.num_batches}"]
        assert min(e["ts"] for e in late) == pytest.approx(first.wall_seconds * 1e6)
        assert {e["tid"] for e in late} == {0, 1}
        end = max(e["ts"] + e["dur"] for e in events)
        assert end == pytest.approx(report.wall_seconds * 1e6)

    @pytest.mark.parametrize("split", [1, 2, 3])
    def test_resumed_run_exports_the_uninterrupted_trace(self, split, tmp_path):
        """Whether the checkpoint falls before, at, or after the membership
        change, the stitched run's trace is the full run's."""
        full = _make_apt().run_strategy("dnp", N, faults=_leave())
        ck = str(tmp_path / "ck")
        _make_apt(checkpoint_dir=ck).run_strategy("dnp", split, faults=_leave())
        resumed = _make_apt().run_strategy("dnp", N, faults=_leave(), resume=ck)
        assert resumed.result.chrome_trace() == full.result.chrome_trace()


class TestPreparedOnce:
    @pytest.fixture
    def prepares(self, monkeypatch):
        calls = []
        original = GDPStrategy.prepare

        def counting(self, ctx):
            calls.append(ctx)
            return original(self, ctx)

        monkeypatch.setattr(GDPStrategy, "prepare", counting)
        return calls

    def test_one_prepare_per_trainer_build(self, prepares):
        report = _make_apt().run_strategy("gdp", N, faults=_leave())
        assert len(prepares) == len(report.result.timelines) == 2
        assert prepares[0] is not prepares[1]

    def test_one_prepare_per_serve_engine(self, prepares):
        ServeEngine(_make_apt(), strategy="gdp")
        assert len(prepares) == 1
