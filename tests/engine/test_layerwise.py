"""Per-layer hybrid strategy composition (ISSUE 8 tentpole, DESIGN.md §5.15).

Acceptance pins:

* spec grammar + canonicalization algebra;
* a layerwise plan assigning every layer the same strategy is
  **bit-identical** (losses, params, Timeline) to that single strategy,
  for gdp/nfp/snp/dnp, on the serial and process backends;
* mixed compositions train to the same losses/parameters as any single
  strategy (the semantic-equivalence property extends to compositions),
  with re-layout traffic recorded and charged;
* timing-only mode charges the identical timeline for mixed specs;
* the beam-search planner ranks compositions with the singles and
  dedups behaviorally-equal specs through ``canonical_spec``;
* serving a homogeneous layerwise spec answers identically to the
  single strategy.
"""

import numpy as np
import pytest

from repro.cluster import multi_machine_cluster, single_machine_cluster
from repro.config import APTConfig, ServeConfig
from repro.core import APT
from repro.engine import make_strategy
from repro.engine.layerwise import (
    LayerwiseStrategy,
    canonical_spec,
    format_spec,
    is_layerwise_spec,
    parse_layerwise,
)
from repro.models import GraphSAGE
from repro.serve import LoadGenerator, ServeEngine

SINGLES = ("gdp", "nfp", "snp", "dnp")


def _build_apt(ds, *, layers=2, backend="serial", hidden=8):
    model = GraphSAGE(ds.feature_dim, hidden, ds.num_classes, layers, seed=1)
    cluster = multi_machine_cluster(
        2, 2, gpu_cache_bytes=ds.feature_bytes * 0.06
    )
    config = APTConfig(
        fanouts=(4,) * layers,
        global_batch_size=128,
        seed=0,
        execution_backend=backend,
        num_workers=2,
        prefetch_depth=2,
    )
    return APT(ds, model, cluster, config), model


def _run(ds, strategy, *, layers=2, backend="serial", epochs=2, numerics=True):
    apt, model = _build_apt(ds, layers=layers, backend=backend)
    apt.prepare()
    report = apt.run_strategy(strategy, epochs, numerics=numerics)
    return report, model


def _facts(report):
    return (
        [e.mean_loss for e in report.result.epochs],
        [e.phases for e in report.result.epochs],
        [e.num_batches for e in report.result.epochs],
    )


def _states_equal(ma, mb, exact=True):
    sa, sb = ma.state_dict(), mb.state_dict()
    assert sa.keys() == sb.keys()
    for k in sa:
        if exact:
            np.testing.assert_array_equal(sa[k], sb[k])
        else:
            np.testing.assert_allclose(sa[k], sb[k], atol=1e-8)


# ---------------------------------------------------------------------- #
class TestSpecGrammar:
    def test_parse_with_and_without_prefix(self):
        assert parse_layerwise("layerwise:nfp,gdp") == ["nfp", "gdp"]
        assert parse_layerwise("NFP, GDP") == ["nfp", "gdp"]
        assert parse_layerwise(["snp", "dnp"]) == ["snp", "dnp"]

    def test_format_round_trips(self):
        assert format_spec(["nfp", "gdp"]) == "layerwise:nfp,gdp"
        assert parse_layerwise(format_spec(["nfp", "gdp"])) == ["nfp", "gdp"]

    def test_is_layerwise_spec(self):
        assert is_layerwise_spec("layerwise:gdp,gdp")
        assert not is_layerwise_spec("gdp")
        assert not is_layerwise_spec(None)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="compose"):
            parse_layerwise("layerwise:gdp,hyb")
        with pytest.raises(ValueError, match="empty"):
            parse_layerwise("layerwise:")

    def test_nfp_above_layer_zero_rejected_in_mixed_specs(self):
        with pytest.raises(ValueError, match="layer 0"):
            parse_layerwise("layerwise:gdp,nfp")
        # ... but a homogeneous all-nfp spec is plain NFP and fine.
        assert parse_layerwise("layerwise:nfp,nfp") == ["nfp", "nfp"]

    def test_make_strategy_accepts_specs(self):
        s = make_strategy("layerwise:nfp,snp")
        assert isinstance(s, LayerwiseStrategy)
        assert s.name == "layerwise:nfp,snp"
        assert s.seed_split == "partition"  # follows the top layer
        assert s.requires_partition
        with pytest.raises(KeyError, match="layerwise"):
            make_strategy("pipelined")

    def test_canonicalization_algebra(self):
        # homogeneous folds to the single strategy
        assert canonical_spec(["gdp", "gdp"]) == ("gdp",)
        # replicated uppers + the base's native seed split == the single
        assert canonical_spec(["nfp", "gdp"]) == ("nfp",)
        # upper dnp is layout-equal to upper snp
        assert canonical_spec(["gdp", "dnp"]) == ("gdp", "snp")
        assert canonical_spec(["gdp", "snp"]) == ("gdp", "snp")
        # snp base with a replicated top changes the seed split => distinct
        assert canonical_spec(["snp", "gdp"]) == ("snp", "gdp")


# ---------------------------------------------------------------------- #
class TestHomogeneousBitIdentity:
    @pytest.mark.parametrize("strategy", SINGLES)
    def test_serial_losses_params_timeline(self, tiny_dataset, strategy):
        r_single, m_single = _run(tiny_dataset, strategy)
        r_layer, m_layer = _run(tiny_dataset, f"layerwise:{strategy},{strategy}")
        assert _facts(r_single) == _facts(r_layer)
        _states_equal(m_single, m_layer)

    @pytest.mark.parametrize("strategy", SINGLES)
    def test_process_backend_losses_params_timeline(
        self, tiny_dataset, strategy
    ):
        r_single, m_single = _run(tiny_dataset, strategy, backend="process")
        r_layer, m_layer = _run(
            tiny_dataset, f"layerwise:{strategy},{strategy}", backend="process"
        )
        assert _facts(r_single) == _facts(r_layer)
        _states_equal(m_single, m_layer)


# ---------------------------------------------------------------------- #
class TestMixedCompositions:
    """Mixed specs keep the exact global-mean update (allclose to GDP —
    regrouped aggregation reorders float sums) and charge re-layouts."""

    @pytest.fixture(scope="class")
    def gdp_ref(self, tiny_dataset):
        return _run(tiny_dataset, "gdp", layers=3)

    @pytest.mark.parametrize(
        "spec",
        (
            "layerwise:gdp,snp,gdp",
            "layerwise:gdp,snp,snp",
            "layerwise:nfp,snp,snp",
            "layerwise:snp,gdp,dnp",
        ),
    )
    def test_losses_and_params_match_gdp(self, tiny_dataset, gdp_ref, spec):
        r_ref, m_ref = gdp_ref
        r, m = _run(tiny_dataset, spec, layers=3)
        np.testing.assert_allclose(
            [e.mean_loss for e in r.result.epochs],
            [e.mean_loss for e in r_ref.result.epochs],
            atol=1e-9,
        )
        _states_equal(m_ref, m, exact=False)

    def test_relayout_bytes_recorded_and_reported(self, tiny_dataset):
        """A node-partitioned middle layer between replicated neighbours
        moves rows both ways; the recorder and the RunReport expose it."""
        r, _ = _run(tiny_dataset, "layerwise:gdp,snp,gdp", layers=3)
        recorder = r.result.recorder
        assert recorder.total_relayout_bytes() > 0
        # one re-layout into layer 1 (follower->node) and one out of it
        # (node->replicated at layer 2)
        assert set(recorder.relayout_layer_bytes) == {1, 2}
        payload = r.to_dict()
        assert payload["result"]["relayout_bytes"] == pytest.approx(
            recorder.total_relayout_bytes()
        )
        assert payload["result"]["layer_assignment"] == ["gdp", "snp", "gdp"]
        # re-layout traffic is priced: it flows through the hidden-byte
        # matrix the cost model's T_shuffle term reads
        assert recorder.total_hidden_bytes() >= recorder.total_relayout_bytes()

    def test_partition_split_top_layer_needs_no_final_relayout(
        self, tiny_dataset
    ):
        """Seeds split by partition make the partitioned top layer's output
        already loss-aligned — zero re-layout for [gdp, snp]."""
        r, _ = _run(tiny_dataset, "layerwise:gdp,snp")
        assert r.result.recorder.total_relayout_bytes() == 0.0

    @pytest.mark.parametrize(
        "spec", ("layerwise:gdp,snp,gdp", "layerwise:nfp,snp,snp")
    )
    def test_timing_mode_charges_identical_timeline(self, tiny_dataset, spec):
        r_num, _ = _run(tiny_dataset, spec, layers=3, epochs=1)
        r_tim, _ = _run(tiny_dataset, spec, layers=3, epochs=1, numerics=False)
        assert [e.phases for e in r_num.result.epochs] == [
            e.phases for e in r_tim.result.epochs
        ]

    def test_layer_count_mismatch_rejected(self, tiny_dataset):
        with pytest.raises(ValueError, match="layers"):
            _run(tiny_dataset, "layerwise:gdp,snp,gdp", layers=2)


# ---------------------------------------------------------------------- #
class TestBeamSearchPlanner:
    def test_search_ranks_compositions_with_singles(self, tiny_dataset):
        apt, _ = _build_apt(tiny_dataset, layers=2)
        apt.prepare()
        report = apt.plan_layerwise()
        plan = report.plan
        assert set(plan.ranking) >= set(SINGLES)
        layerwise = [n for n in plan.ranking if n.startswith("layerwise:")]
        assert layerwise  # compositions actually competed
        for name in layerwise:
            assert plan.layer_assignments[name] == parse_layerwise(name)
            assert name in plan.relayout_bytes
        # estimates expose the informational re-layout byte counter
        for name in layerwise:
            est = plan.estimates[name]
            assert est.relayout_bytes == plan.relayout_bytes[name]
        # the chosen spec runs through the normal run path
        run = apt.run(1, strategy=report.chosen)
        assert run.result.strategy == report.chosen

    def test_candidates_dedup_on_canonical_spec(self, tiny_dataset):
        """Behaviorally-equal specs are dry-run once: [nfp,gdp] == nfp,
        upper dnp == upper snp."""
        apt, _ = _build_apt(tiny_dataset, layers=2)
        apt.prepare()
        evaluated = []
        real_run = apt.context.dryrun.run

        def counting_run(spec, epoch=0):
            evaluated.append(spec)
            return real_run(spec, epoch)

        apt.context.dryrun.run = counting_run
        apt.plan_layerwise()
        assert len(evaluated) == len(set(evaluated))
        assert "layerwise:nfp,gdp" not in evaluated  # canonical: plain nfp
        assert not any("dnp" in s.split(":")[-1].split(",")[1:]
                       for s in evaluated if s.startswith("layerwise:"))


# ---------------------------------------------------------------------- #
class TestServing:
    def test_homogeneous_spec_serves_identically(self, tiny_dataset):
        def serve(strategy):
            model = GraphSAGE(
                tiny_dataset.feature_dim, 8, tiny_dataset.num_classes, 2, seed=1
            )
            cluster = single_machine_cluster(
                2, gpu_cache_bytes=tiny_dataset.feature_bytes * 0.06
            )
            apt = APT(
                tiny_dataset,
                model,
                cluster,
                APTConfig(fanouts=(4, 4), global_batch_size=256, seed=0),
            )
            engine = ServeEngine(
                apt,
                config=ServeConfig(max_batch_size=16, max_wait_s=0.002),
                strategy=strategy,
            )
            requests = LoadGenerator(
                tiny_dataset.num_nodes, seed=5, rate=2000.0, zipf_a=1.5
            ).generate(48)
            report = engine.serve(requests)
            return report, {
                (r.node, r.prediction) for r in report.responses
            }

        r_single, preds_single = serve("gdp")
        r_layer, preds_layer = serve("layerwise:gdp,gdp")
        assert preds_single == preds_layer
        assert r_single.service == r_layer.service
        assert r_single.latency == r_layer.latency
