"""Checkpoint/resume: atomic persistence and kill-and-resume bit-identity.

DESIGN.md §5.11: ``repro run --resume <dir>`` must continue a killed run
so the finished product — losses, parameters, strategy history, simulated
Timeline — is bit-identical to the run that was never interrupted.
"""

import os
import pickle
import signal
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.cluster import single_machine_cluster
from repro.cluster.timeline import Timeline
from repro.config import APTConfig
from repro.core import APT
from repro.core.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointManager,
    config_digest,
    recorder_state,
    restore_recorder,
)
from repro.engine.context import VolumeRecorder
from repro.featurestore import TIERS, Tier, UnifiedFeatureStore
from repro.graph.datasets import small_dataset
from repro.models import GraphSAGE
from repro.tensor.optim import Adam


# ---------------------------------------------------------------------- #
# manager mechanics
# ---------------------------------------------------------------------- #
class TestCheckpointManager:
    def _save(self, mgr, n, payload="x"):
        return mgr.save(
            epochs_completed=n,
            config_dict={"seed": 0},
            run_args={"strategy": "dnp"},
            state={"payload": payload},
        )

    def test_save_load_roundtrip(self, tmp_path):
        mgr = CheckpointManager(str(tmp_path))
        path = self._save(mgr, 3, payload={"a": np.arange(4)})
        ck = mgr.load()
        assert ck.path == path
        assert ck.epochs_completed == 3
        assert ck.manifest["version"] == CHECKPOINT_VERSION
        np.testing.assert_array_equal(ck.state["payload"]["a"], np.arange(4))

    def test_latest_picks_newest_epoch(self, tmp_path):
        mgr = CheckpointManager(str(tmp_path))
        self._save(mgr, 1)
        newest = self._save(mgr, 2)
        assert mgr.latest() == newest
        assert mgr.load().epochs_completed == 2

    def test_prune_keeps_newest(self, tmp_path):
        mgr = CheckpointManager(str(tmp_path), keep=2)
        for n in (1, 2, 3, 4):
            self._save(mgr, n)
        names = [os.path.basename(p) for p in mgr.checkpoints()]
        assert names == ["epoch-000003", "epoch-000004"]

    def test_half_written_checkpoint_is_invisible(self, tmp_path):
        mgr = CheckpointManager(str(tmp_path))
        self._save(mgr, 1)
        # A crash mid-save leaves only a temp dir — never a bare epoch dir.
        torn = tmp_path / "epoch-000002"
        torn.mkdir()
        (torn / "manifest.json").write_text("{}")  # state.pkl missing
        assert mgr.load().epochs_completed == 1

    def test_version_mismatch_raises(self, tmp_path):
        mgr = CheckpointManager(str(tmp_path))
        path = self._save(mgr, 1)
        manifest = os.path.join(path, "manifest.json")
        text = open(manifest).read().replace(
            f'"version": {CHECKPOINT_VERSION}', '"version": 999'
        )
        open(manifest, "w").write(text)
        with pytest.raises(ValueError, match="version"):
            mgr.load()

    def test_missing_checkpoint_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            CheckpointManager(str(tmp_path)).load()

    def test_verify_config_accepts_host_only_changes(self, tmp_path):
        mgr = CheckpointManager(str(tmp_path))
        base = {"seed": 0, "fanouts": [4, 4], "execution_backend": "serial"}
        mgr.save(epochs_completed=1, config_dict=base,
                 run_args={}, state={})
        ck = mgr.load()
        # Host-side knobs may differ across a resume...
        mgr.verify_config(
            ck, dict(base, execution_backend="process", num_workers=2)
        )
        # ...result-determining ones may not.
        with pytest.raises(ValueError, match="result-determining"):
            mgr.verify_config(ck, dict(base, seed=1))

    def test_config_digest_ignores_host_fields(self):
        a = {"seed": 0, "num_workers": 0, "checkpoint_every": 1}
        b = {"seed": 0, "num_workers": 8, "checkpoint_every": 5}
        assert config_digest(a) == config_digest(b)
        assert config_digest(a) != config_digest({"seed": 1})


# ---------------------------------------------------------------------- #
# state_dict round-trips
# ---------------------------------------------------------------------- #
def _params():
    return GraphSAGE(4, 4, 2, 2, seed=0).parameters()


class TestStateDicts:
    def test_adam_roundtrip_reproduces_updates(self):
        model_a = GraphSAGE(4, 4, 2, 2, seed=0)
        model_b = GraphSAGE(4, 4, 2, 2, seed=0)
        opt_a = Adam(model_a.parameters(), lr=0.01)
        opt_b = Adam(model_b.parameters(), lr=0.5)  # wrong hyperparams
        rng = np.random.default_rng(0)
        grads = [rng.normal(size=p.data.shape) for p in opt_a.params]
        for p, g in zip(opt_a.params, grads):
            p.grad = g.copy()
        opt_a.step()
        opt_b.load_state_dict(opt_a.state_dict())
        model_b.load_state_dict(model_a.state_dict())
        assert opt_b._t == opt_a._t and opt_b.lr == opt_a.lr
        for p, g in zip(opt_a.params, grads):
            p.grad = g.copy()
        for p, g in zip(opt_b.params, grads):
            p.grad = g.copy()
        opt_a.step()
        opt_b.step()
        for pa, pb in zip(opt_a.params, opt_b.params):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_adam_slot_roundtrip(self):
        opt = Adam(_params(), lr=0.1, betas=(0.8, 0.99), eps=1e-6)
        for p in opt.params:
            p.grad = np.ones_like(p.data)
        opt.step()
        clone = Adam(_params(), lr=0.2)
        clone.load_state_dict(opt.state_dict())
        assert clone.lr == 0.1 and (clone.b1, clone.b2) == (0.8, 0.99)
        assert clone.eps == 1e-6 and clone._t == 1
        for mine, saved in zip(clone._m + clone._v, opt._m + opt._v):
            np.testing.assert_array_equal(mine, saved)

    def test_optimizer_rejects_mismatched_slots(self):
        opt = Adam(_params(), lr=0.1)
        state = opt.state_dict()
        state["m"] = state["m"][:-1]
        with pytest.raises(ValueError, match="slots"):
            opt.load_state_dict(state)

    def test_timeline_roundtrip(self):
        tl = Timeline(4)
        tl.charge(0, "sample", 1.0)
        tl.charge(1, "train", 2.0)
        tl.end_batch()
        tl.charge_all("load", 0.5)
        tl.end_batch()
        fresh = Timeline(4)
        fresh.load_state_dict(tl.state_dict())
        assert fresh.wall_seconds == tl.wall_seconds
        assert fresh.num_batches == tl.num_batches
        assert fresh.breakdown() == tl.breakdown()

    def test_recorder_roundtrip_every_attribute(self):
        """Every ``VolumeRecorder`` attribute survives a checkpoint bit for
        bit, or is named here with the reason it is not saved."""
        not_saved = {
            # only dry-runs record it (the planner's compute-skew term);
            # a training run's recorder never holds a non-zero entry
            "upper_flops",
        }
        ds = small_dataset(n=60, feature_dim=4, num_classes=2)
        store = UnifiedFeatureStore(ds, single_machine_cluster(3))
        store.configure_caches([np.arange(7), np.arange(3, 9), np.empty(0, np.int64)])
        rec = VolumeRecorder(3)
        rec.record_loads(store.classify([np.arange(20), None, np.arange(5, 40, 3)]))
        rec.disk_ranged_reads[1] = 7.0
        rec.record_hidden(0, 2, 1.5)
        rec.record_structure(1, 2.25)
        rec.n_dst, rec.n_virtual = 11, 4
        rec.record_message_pattern(np.ones((3, 3)), calls=2)
        rec.record_intermediate(2, 3.0)
        rec.record_layer1_flops(0, 0.1)
        rec.record_upper_flops(1, 0.2)
        rec.record_relayout(1, 2, 0, 5.5)
        rec.access_frequency = np.linspace(0.0, 1.0, ds.num_nodes)

        fresh = VolumeRecorder(3)
        restore_recorder(fresh, pickle.loads(pickle.dumps(recorder_state(rec))))
        for name, value in vars(rec).items():
            got = getattr(fresh, name)
            if name in not_saved:
                assert not np.array_equal(got, value), name
            elif isinstance(value, np.ndarray):
                assert (got.dtype, got.shape) == (value.dtype, value.shape), name
                assert got.tobytes() == value.tobytes(), name
            else:
                assert type(got) is type(value) and got == value, name
        assert not_saved <= set(vars(rec))

    def test_recorder_restores_per_device_tier_dicts(self):
        """Older checkpoints keep ``load_rows`` as one ``{Tier: rows}`` dict
        per device; the oldest have no disk key."""
        rec = VolumeRecorder(2)
        state = recorder_state(rec)
        state["load_rows"] = [
            {Tier.GPU_CACHE: 3.0, Tier.LOCAL_CPU: 5.0, Tier.PEER_GPU: 0.0,
             Tier.REMOTE_CPU: 1.0},
            {t: float(i) for i, t in enumerate(Tier)},
        ]
        restore_recorder(rec, state)
        for d, rows in enumerate(state["load_rows"]):
            for col, tier in enumerate(TIERS):
                assert rec.load_rows[d, col] == rows.get(tier, 0.0)

    def test_timeline_rejects_wrong_device_count(self):
        tl = Timeline(4)
        with pytest.raises(ValueError, match="devices"):
            Timeline(2).load_state_dict(tl.state_dict())


# ---------------------------------------------------------------------- #
# resume equivalence
# ---------------------------------------------------------------------- #
def _make_apt(**kw):
    ds = small_dataset(n=800, feature_dim=16, num_classes=4, seed=7)
    model = GraphSAGE(16, 8, 4, 2, seed=1)
    kwargs = dict(fanouts=(4, 4), global_batch_size=256, seed=0)
    kwargs.update(kw)
    return APT(ds, model, single_machine_cluster(4), APTConfig(**kwargs))


def _run_facts(report):
    return (
        [e.mean_loss for e in report.result.epochs],
        [e.phases for e in report.result.epochs],
        report.strategy_by_epoch,
    )


class TestResumeEquivalence:
    def test_resume_matches_uninterrupted_run(self, tmp_path):
        apt_full = _make_apt()
        full = apt_full.run_strategy("dnp", 6)

        ckdir = str(tmp_path / "ck")
        _make_apt(checkpoint_dir=ckdir).run_strategy("dnp", 3)
        apt_res = _make_apt()  # a fresh process carries no state over
        resumed = apt_res.run_strategy("dnp", 6, resume=ckdir)

        assert _run_facts(full) == _run_facts(resumed)
        sa, sb = apt_full.model.state_dict(), apt_res.model.state_dict()
        for k in sa:
            np.testing.assert_array_equal(sa[k], sb[k])
        np.testing.assert_array_equal(
            full.result.recorder.load_rows, resumed.result.recorder.load_rows
        )
        kinds = {e.kind for e in resumed.collector.events}
        assert "resume" in kinds and "checkpoint" in kinds

    def test_resume_respects_checkpoint_every(self, tmp_path):
        ckdir = str(tmp_path / "ck")
        _make_apt(
            checkpoint_dir=ckdir, checkpoint_every=2
        ).run_strategy("dnp", 5)
        mgr = CheckpointManager(ckdir)
        names = [os.path.basename(p) for p in mgr.checkpoints()]
        # Epochs 2 and 4 by cadence, plus the always-written final epoch.
        assert names == ["epoch-000002", "epoch-000004", "epoch-000005"]

    def test_resume_under_changed_config_raises(self, tmp_path):
        ckdir = str(tmp_path / "ck")
        _make_apt(checkpoint_dir=ckdir).run_strategy("dnp", 2)
        apt = _make_apt(global_batch_size=128)
        with pytest.raises(ValueError, match="result-determining"):
            apt.run_strategy("dnp", 4, resume=ckdir)

    def test_resume_past_the_end_raises(self, tmp_path):
        ckdir = str(tmp_path / "ck")
        _make_apt(checkpoint_dir=ckdir).run_strategy("dnp", 3)
        with pytest.raises(ValueError, match="already covers"):
            _make_apt().run_strategy("dnp", 3, resume=ckdir)

    def test_run_auto_adopts_checkpointed_strategy(self, tmp_path):
        ckdir = str(tmp_path / "ck")
        _make_apt(checkpoint_dir=ckdir).run_strategy("snp", 2)
        apt = _make_apt()
        report = apt.run(4, resume=ckdir)
        assert set(report.strategy_by_epoch) == {"snp"}


# ---------------------------------------------------------------------- #
# the pin: kill -9 mid-training, then --resume reproduces the run
# ---------------------------------------------------------------------- #
_CHILD = textwrap.dedent(
    """
    import os, signal, sys
    from repro.engine.trainer import ParallelTrainer

    ckdir = sys.argv[1]
    die_at = int(sys.argv[2])

    original = ParallelTrainer.train_epoch
    def lethal(self, epoch):
        if epoch == die_at:
            os.kill(os.getpid(), signal.SIGKILL)  # no goodbye
        return original(self, epoch)
    ParallelTrainer.train_epoch = lethal

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from _ck_common import make_apt
    make_apt(checkpoint_dir=ckdir).run_strategy("dnp", 6)
    """
)

_COMMON = textwrap.dedent(
    """
    from repro.cluster import single_machine_cluster
    from repro.config import APTConfig
    from repro.core import APT
    from repro.graph.datasets import small_dataset
    from repro.models import GraphSAGE

    def make_apt(**kw):
        ds = small_dataset(n=800, feature_dim=16, num_classes=4, seed=7)
        model = GraphSAGE(16, 8, 4, 2, seed=1)
        config = APTConfig(
            fanouts=(4, 4), global_batch_size=256, seed=0, **kw
        )
        return APT(ds, model, single_machine_cluster(4), config)
    """
)


class TestKillAndResume:
    def test_sigkill_then_resume_reproduces_final_report(self, tmp_path):
        (tmp_path / "_ck_common.py").write_text(_COMMON)
        child = tmp_path / "child.py"
        child.write_text(_CHILD)
        ckdir = str(tmp_path / "ck")

        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        proc = subprocess.run(
            [sys.executable, str(child), ckdir, "3"],
            env=env, cwd=str(tmp_path), capture_output=True, timeout=300,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr.decode()
        mgr = CheckpointManager(ckdir)
        assert mgr.load().epochs_completed == 3  # epochs 0-2 survived

        apt_res = _make_apt()
        resumed = apt_res.run_strategy("dnp", 6, resume=ckdir)

        apt_full = _make_apt()
        full = apt_full.run_strategy("dnp", 6)
        assert _run_facts(full) == _run_facts(resumed)
        sa = apt_full.model.state_dict()
        sb = apt_res.model.state_dict()
        for k in sa:
            np.testing.assert_array_equal(sa[k], sb[k])


# ---------------------------------------------------------------------- #
# corruption detection and keep-last-N (DESIGN.md §5.16)
# ---------------------------------------------------------------------- #
def _corrupt(path):
    """Flip the state payload of checkpoint dir ``path`` to garbage."""
    with open(os.path.join(path, "state.pkl"), "wb") as fh:
        fh.write(b"\x00not a pickle\x00")


class TestCorruptionFallback:
    def _save(self, mgr, n):
        return mgr.save(
            epochs_completed=n,
            config_dict={"seed": 0},
            run_args={"strategy": "dnp"},
            state={"epoch": n},
        )

    def test_state_digest_recorded_in_manifest(self, tmp_path):
        import json

        from repro.core.checkpoint import state_digest

        mgr = CheckpointManager(str(tmp_path))
        path = self._save(mgr, 1)
        manifest = json.load(open(os.path.join(path, "manifest.json")))
        raw = open(os.path.join(path, "state.pkl"), "rb").read()
        assert manifest["state_digest"] == state_digest(raw)

    def test_corrupt_newest_falls_back_to_previous(self, tmp_path):
        mgr = CheckpointManager(str(tmp_path))
        self._save(mgr, 1)
        newest = self._save(mgr, 2)
        _corrupt(newest)

        fresh = CheckpointManager(str(tmp_path))
        ck = fresh.load()
        assert ck.epochs_completed == 1
        assert len(fresh.warnings) == 1
        assert fresh.warnings[0]["path"] == newest
        assert fresh.warnings[0]["error"]

    def test_corrupt_only_checkpoint_still_raises(self, tmp_path):
        mgr = CheckpointManager(str(tmp_path))
        only = self._save(mgr, 1)
        _corrupt(only)
        fresh = CheckpointManager(str(tmp_path))
        with pytest.raises(ValueError, match="digest"):
            fresh.load()
        assert len(fresh.warnings) == 1

    def test_explicit_path_load_stays_strict(self, tmp_path):
        mgr = CheckpointManager(str(tmp_path))
        self._save(mgr, 1)
        newest = self._save(mgr, 2)
        _corrupt(newest)
        with pytest.raises(ValueError, match="digest"):
            mgr.load(newest)

    def test_resume_survives_corrupt_latest(self, tmp_path):
        """APT resume falls back to the previous valid checkpoint, emits a
        ``checkpoint_corrupt`` warning event, and still reproduces the
        uninterrupted run bit-for-bit."""
        full = _make_apt().run_strategy("dnp", 5)

        ckdir = str(tmp_path / "ck")
        _make_apt(checkpoint_dir=ckdir, checkpoint_every=1).run_strategy(
            "dnp", 3
        )
        _corrupt(CheckpointManager(ckdir).latest())  # epoch-000003

        apt = _make_apt()
        resumed = apt.run_strategy("dnp", 5, resume=ckdir)
        assert _run_facts(full) == _run_facts(resumed)

        corrupt = [
            e for e in resumed.collector.events if e.kind == "checkpoint_corrupt"
        ]
        assert len(corrupt) == 1
        assert corrupt[0].data["path"].endswith("epoch-000003")

    def test_checkpoint_keep_config_prunes(self, tmp_path):
        ckdir = str(tmp_path / "ck")
        _make_apt(
            checkpoint_dir=ckdir, checkpoint_every=1, checkpoint_keep=2
        ).run_strategy("dnp", 5)
        names = [
            os.path.basename(p) for p in CheckpointManager(ckdir).checkpoints()
        ]
        assert names == ["epoch-000004", "epoch-000005"]

    def test_checkpoint_keep_is_host_only(self, tmp_path):
        ckdir = str(tmp_path / "ck")
        _make_apt(checkpoint_dir=ckdir, checkpoint_keep=5).run_strategy(
            "dnp", 2
        )
        # keep-last-N may change across a resume without tripping the
        # result-determining config check.
        apt = _make_apt(checkpoint_keep=1)
        apt.run_strategy("dnp", 3, resume=ckdir)
