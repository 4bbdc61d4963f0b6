"""Tests for the APTConfig surface and ``APT`` construction."""

import numpy as np
import pytest

from repro.config import PLAN_STRATEGIES, APTConfig
from repro.core import APT
from repro.models import GraphSAGE


class TestAPTConfigValidation:
    def test_defaults_are_valid(self):
        cfg = APTConfig()
        assert cfg.fanouts == (10, 10, 10)
        assert cfg.strategies == PLAN_STRATEGIES
        assert cfg.telemetry is True and cfg.replan is False

    def test_fanouts_coerced_and_checked(self):
        assert APTConfig(fanouts=[4.0, 4.0]).fanouts == (4, 4)
        with pytest.raises(ValueError):
            APTConfig(fanouts=())
        with pytest.raises(ValueError):
            APTConfig(fanouts=(4, 0))

    def test_batch_size_positive(self):
        with pytest.raises(ValueError):
            APTConfig(global_batch_size=0)

    def test_partition_modes(self):
        assert APTConfig(partition="random").partition == "random"
        explicit = APTConfig(partition=[0, 1, 0, 1]).partition
        assert isinstance(explicit, np.ndarray) and explicit.dtype == np.int64
        with pytest.raises(ValueError):
            APTConfig(partition="bogus")
        with pytest.raises(ValueError):
            APTConfig(partition=[[0, 1], [1, 0]])

    def test_drift_threshold_positive(self):
        with pytest.raises(ValueError):
            APTConfig(drift_threshold=0.0)

    def test_strategies_normalized_and_checked(self):
        assert APTConfig(strategies=("GDP", "dnp")).strategies == ("gdp", "dnp")
        with pytest.raises(ValueError):
            APTConfig(strategies=("gdp", "warp"))
        with pytest.raises(ValueError):
            APTConfig(strategies=())

    def test_replace_returns_validated_copy(self):
        cfg = APTConfig()
        new = cfg.replace(fanouts=(5, 5), replan=True)
        assert new.fanouts == (5, 5) and new.replan is True
        assert cfg.fanouts == (10, 10, 10)
        with pytest.raises(ValueError):
            cfg.replace(fanouts=())

    def test_to_dict_is_json_safe(self):
        import json

        cfg = APTConfig(partition=np.zeros(16, dtype=np.int64))
        out = cfg.to_dict()
        assert out["partition"] == "<explicit:16 nodes>"
        json.dumps(out)  # must not raise


class TestAPTConstruction:
    @pytest.fixture
    def task(self, tiny_dataset, cluster4):
        model = GraphSAGE(
            tiny_dataset.feature_dim, 8, tiny_dataset.num_classes, 2, seed=1
        )
        return tiny_dataset, model, cluster4

    def test_config_object_is_the_supported_surface(self, task):
        ds, model, cluster = task
        cfg = APTConfig(fanouts=(4, 4), global_batch_size=256)
        apt = APT(ds, model, cluster, cfg)
        assert apt.config is cfg
        for name in ("fanouts", "global_batch_size", "partition", "seed",
                     "bandwidth_noise", "cpu_sampling", "compute_skew",
                     "overlap"):
            assert not hasattr(apt, name), name  # read apt.config instead

    def test_legacy_positional_fanouts_raise(self, task):
        ds, model, cluster = task
        with pytest.raises(TypeError, match="APTConfig"):
            APT(ds, model, cluster, [4, 4])

    def test_unknown_kwarg_is_a_typeerror(self, task):
        ds, model, cluster = task
        with pytest.raises(TypeError, match="unexpected"):
            APT(ds, model, cluster, fanout=[4, 4])

    def test_config_plus_legacy_kwargs_rejected(self, task):
        ds, model, cluster = task
        with pytest.raises(TypeError, match="unexpected keyword argument 'seed'"):
            APT(ds, model, cluster, APTConfig(fanouts=(4, 4)), seed=3)

    def test_layer_fanout_mismatch(self, task):
        ds, model, cluster = task
        with pytest.raises(ValueError):
            APT(ds, model, cluster, APTConfig(fanouts=(4, 4, 4)))

    def test_run_reports_delegate_both_legacy_surfaces(self, task):
        ds, model, cluster = task
        apt = APT(ds, model, cluster, APTConfig(fanouts=(4, 4), global_batch_size=256))
        plan = apt.plan()
        assert plan.chosen in PLAN_STRATEGIES
        assert set(plan.estimates) == set(PLAN_STRATEGIES)
        with pytest.raises(AttributeError, match="result"):
            plan.epochs
        run = apt.run_strategy("gdp", 1, numerics=False)
        assert run.strategy == "gdp"
        assert run.epoch_seconds > 0.0
        assert run.to_json()  # serializes the whole nested report


class TestExecutionFieldValidation:
    @pytest.mark.parametrize("value", [-1, 1025, 2.5, True, "four"])
    def test_num_workers_rejected_with_hint(self, value):
        with pytest.raises(ValueError) as err:
            APTConfig(num_workers=value)
        msg = str(err.value)
        assert "num_workers" in msg and "REPRO_NUM_WORKERS" in msg

    @pytest.mark.parametrize("value", [-1, 257, 0.5, False, "deep"])
    def test_prefetch_depth_rejected_with_hint(self, value):
        with pytest.raises(ValueError) as err:
            APTConfig(prefetch_depth=value)
        msg = str(err.value)
        assert "prefetch_depth" in msg and "--prefetch-depth" in msg

    def test_valid_bounds_accepted(self):
        cfg = APTConfig(num_workers=0, prefetch_depth=0)
        assert cfg.num_workers == 0 and cfg.prefetch_depth == 0
        APTConfig(num_workers=1024, prefetch_depth=256)

    def test_fault_policy_coerced_from_dict(self):
        cfg = APTConfig(fault_policy={"task_deadline_s": 2.0, "max_retries": 1})
        from repro.parallel.supervisor import FaultPolicy

        assert isinstance(cfg.fault_policy, FaultPolicy)
        assert cfg.fault_policy.task_deadline_s == 2.0
        with pytest.raises(ValueError):
            APTConfig(fault_policy={"task_deadline_s": -1.0})

    def test_host_chaos_coerced_from_grammar(self):
        cfg = APTConfig(host_chaos="kill@1;hang@3:0.2")
        from repro.parallel.chaos import HostFaultSchedule

        assert isinstance(cfg.host_chaos, HostFaultSchedule)
        assert len(cfg.host_chaos.events) == 2
        with pytest.raises(ValueError):
            APTConfig(host_chaos="meteor@1")

    def test_checkpoint_every_bounds(self):
        assert APTConfig(checkpoint_every=5).checkpoint_every == 5
        with pytest.raises(ValueError, match="checkpoint_every"):
            APTConfig(checkpoint_every=0)
        with pytest.raises(ValueError, match="checkpoint_every"):
            APTConfig(checkpoint_every=-3)
