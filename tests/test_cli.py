"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_plan_defaults(self):
        args = build_parser().parse_args(["plan"])
        assert args.dataset == "fs"
        assert args.machines == 1

    def test_run_strategy_choices(self):
        args = build_parser().parse_args(["run", "--strategy", "dnp"])
        assert args.strategy == "dnp"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--strategy", "bogus"])

    def test_compare_flags(self):
        args = build_parser().parse_args(["compare", "--hybrid", "--full"])
        assert args.hybrid and args.full

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_plan_has_no_beam_width(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["plan", "--beam-width", "3"])

    def test_fanout_list(self):
        args = build_parser().parse_args(["plan", "--fanout", "5", "5"])
        assert args.fanout == [5, 5]


class TestCommands:
    """Smoke-run each command on a tiny analog."""

    BASE = ["--dataset", "ps", "--nodes", "2500", "--layers", "2",
            "--fanout", "4", "4", "--gpus", "4", "--batch-per-gpu", "64"]

    def test_plan(self, capsys):
        assert main(["plan"] + self.BASE) == 0
        out = capsys.readouterr().out
        assert "APT selects:" in out
        for s in ("gdp", "nfp", "snp", "dnp"):
            assert s in out

    def test_plan_layerwise_renders_the_search(self, capsys):
        assert main(["plan", "--layerwise"] + self.BASE) == 0
        out = capsys.readouterr().out
        assert "(beam-searched per-layer compositions" in out
        assert "\nper-layer assignments:\n" in out
        assert out.rstrip().splitlines()[-1].startswith("APT selects: ")

    def test_run_fixed_strategy(self, capsys):
        assert main(["run", "--strategy", "gdp", "--epochs", "1"] + self.BASE) == 0
        out = capsys.readouterr().out
        assert "ran 1 epoch(s) with gdp" in out
        assert "loss=" in out

    def test_run_with_trace(self, capsys, tmp_path):
        import json

        trace_path = tmp_path / "trace.json"
        assert main(
            ["run", "--strategy", "dnp", "--epochs", "1", "--trace",
             str(trace_path)] + self.BASE
        ) == 0
        events = json.loads(trace_path.read_text())
        assert events and all(e["ph"] == "X" for e in events)
        assert {e["name"] for e in events} <= {"sample", "load", "train", "shuffle"}

    def test_trace_flag_does_not_change_the_run(self, capsys, tmp_path):
        """`run --trace` is the same run plus a file: an --inject schedule
        still fires and every epoch lands in the trace."""
        import json

        schedule = tmp_path / "faults.json"
        schedule.write_text(json.dumps({"events": [
            {"epoch": 1, "kind": "straggler", "machine": 0, "factor": 0.25}
        ]}))
        cmd = ["run", "--strategy", "dnp", "--epochs", "3", "--inject",
               str(schedule), "--json"] + self.BASE
        assert main(cmd) == 0
        plain = json.loads(capsys.readouterr().out)
        trace_path = tmp_path / "trace.json"
        assert main(cmd + ["--trace", str(trace_path)]) == 0
        traced = json.loads(capsys.readouterr().out)

        assert [f["fault"]["kind"] for f in traced["faults"]] == ["straggler"]
        seconds = [e["wall_seconds"] for e in traced["result"]["epochs"]]
        assert seconds == [e["wall_seconds"] for e in plain["result"]["epochs"]]
        assert seconds[1] > seconds[0]  # the straggler slowed epoch 1
        events = json.loads(trace_path.read_text())
        batches = sum(e["num_batches"] for e in traced["result"]["epochs"])
        assert {e["cat"] for e in events} == {f"batch{i}" for i in range(batches)}
        end_us = max(e["ts"] + e["dur"] for e in events)
        assert end_us == pytest.approx(sum(seconds) * 1e6)

    @staticmethod
    def _one_error_line(argv) -> str:
        """Run ``argv``; it must exit 1 with a single ``error:`` line."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        message = exc.value.code
        assert isinstance(message, str)  # a str code exits with status 1
        assert message.startswith("error: ") and "\n" not in message
        return message

    @pytest.mark.parametrize("argv, expected", [
        (["plan", "--layers", "3"], "fanouts has 2 entries"),
        (["plan", "--strategy", "layerwise:gdp,gdp,gdp"], "the model has 2"),
        (["run", "--strategy", "layerwise:gdp,gdp,gdp"], "the model has 2"),
        (["serve", "--requests", "0", "--train-epochs", "0"],
         "num_requests must be positive"),
        (["run", "--epochs", "0"], "num_epochs must be >= 1, got 0"),
        (["plan", "--machines", "3", "--gpus", "8"], "--gpus 8"),
        (["plan", "--machines", "0"], "--machines 0"),
        (["plan", "--gpus", "0"], "--gpus 0"),
        (["plan", "--machines", "2", "--gpus", "1"], "--machines 2"),
        (["plan", "--layerwise", "--objective", "cost"], "--layerwise"),
        (["plan", "--layerwise", "--strategy", "gdp"], "--layerwise"),
        (["plan", "--layerwise", "--budget-dollars", "1"], "--layerwise"),
        (["plan", "--budget-seconds", "1"], "budget_seconds"),
        (["plan", "--objective", "cost", "--budget-dollars", "1"],
         "budget_dollars"),
    ])
    def test_bad_input_exits_in_one_line(self, argv, expected, capsys):
        message = self._one_error_line(argv[:1] + self.BASE + argv[1:])
        assert expected in message
        assert capsys.readouterr().out == ""

    def test_host_event_naming_a_worker_exits_in_one_line(self, tmp_path):
        """A host fault fires in whichever worker takes its task: an event
        that names a ``worker`` is refused, not silently ignored."""
        path = tmp_path / "chaos.json"
        path.write_text(
            '{"host_events": [{"task": 1, "kind": "kill", "worker": 0}]}'
        )
        message = self._one_error_line(
            ["run"] + self.BASE + ["--inject", str(path)]
        )
        assert message.startswith("error: bad fault schedule")
        assert "'worker'" in message

    @pytest.mark.parametrize("key", ["seed", "jitter"])
    def test_inject_naming_seed_or_jitter_exits_in_one_line(self, key, tmp_path):
        """Schedules are plain event lists: a payload key other than
        ``events`` / ``host_events`` is refused, not silently ignored."""
        path = tmp_path / "faults.json"
        path.write_text(
            '{"events": [{"epoch": 1, "kind": "recover"}], "%s": 0}' % key
        )
        message = self._one_error_line(
            ["run"] + self.BASE + ["--inject", str(path)]
        )
        assert message.startswith("error: bad fault schedule")
        assert f"'{key}'" in message

    def test_serve_zero_train_epochs_on_empty_checkpoint_dir(
        self, capsys, tmp_path
    ):
        """--train-epochs 0 serves the untrained model, checkpoint
        directory or not."""
        assert main(["serve", "--requests", "16", "--train-epochs", "0",
                     "--checkpoint-dir", str(tmp_path / "ck")]
                    + self.BASE) == 0
        out = capsys.readouterr().out
        assert "served 16 requests" in out
        assert "training" not in out

    def test_config_flags_reach_the_config(self, capsys, tmp_path):
        import json

        assert main(["run", "--strategy", "gdp", "--epochs", "1",
                     "--backend", "serial", "--workers", "1",
                     "--prefetch-depth", "0", "--no-elastic", "--replan",
                     "--partition", "random", "--disk-promote-mb", "0",
                     "--checkpoint-dir", str(tmp_path / "ck"),
                     "--checkpoint-every", "2", "--checkpoint-keep", "1",
                     "--json"] + self.BASE) == 0
        config = json.loads(capsys.readouterr().out)["config"]
        assert config["execution_backend"] == "serial"
        assert config["num_workers"] == 1
        assert config["prefetch_depth"] == 0
        assert config["elastic"] is False
        assert config["replan"] is True
        assert config["partition"] == "random"
        assert config["disk_promote_mb"] == 0
        assert config["checkpoint_dir"] == str(tmp_path / "ck")
        assert (config["checkpoint_every"], config["checkpoint_keep"]) == (2, 1)

    def test_plan_bad_policy_exits_cleanly(self):
        message = self._one_error_line(
            ["plan", "--objective", "latency", "--policy", "bogus"] + self.BASE
        )
        assert "bad batching policy" in message

    def test_resume_without_checkpoint_exits_cleanly(self, tmp_path):
        message = self._one_error_line(
            ["run", "--epochs", "2", "--resume", str(tmp_path / "ck")]
            + self.BASE
        )
        assert "no checkpoint found" in message

    def test_resume_under_other_flags_exits_cleanly(self, capsys, tmp_path):
        ck = str(tmp_path / "ck")
        assert main(["run", "--strategy", "gdp", "--epochs", "1",
                     "--checkpoint-dir", ck] + self.BASE) == 0
        message = self._one_error_line(
            ["run", "--strategy", "gdp", "--epochs", "2", "--resume", ck,
             "--seed", "1"] + self.BASE
        )
        assert "different result-determining config" in message

    def test_compare_with_hybrid(self, capsys):
        assert main(
            ["compare", "--hybrid"] + self.BASE + ["--machines", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "hyb" in out
        assert "actual best:" in out


class TestGenAndDatasetDir:
    """The out-of-core surface: `repro gen` plus `--dataset-dir` consumers."""

    def test_gen_parser_defaults(self):
        args = build_parser().parse_args(["gen", "/tmp/x"])
        assert args.nodes == 1_000_000
        assert args.kind == "power_law"
        assert args.seed == 0

    def test_gen_writes_dataset(self, capsys, tmp_path):
        out = tmp_path / "ds"
        assert main(["gen", str(out), "--nodes", "800", "--feature-dim", "8",
                     "--classes", "4", "--seed", "1"]) == 0
        assert (out / "meta.json").is_file()
        assert (out / "features.dat").is_file()
        text = capsys.readouterr().out
        assert "800 nodes" in text
        assert "--dataset-dir" in text

    def test_gen_json_output(self, capsys, tmp_path):
        import json

        out = tmp_path / "ds"
        assert main(["gen", str(out), "--nodes", "500", "--feature-dim", "4",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["meta"]["num_nodes"] == 500
        assert payload["num_train_seeds"] > 0

    def test_plan_on_dataset_dir(self, capsys, tmp_path):
        out = tmp_path / "ds"
        assert main(["gen", str(out), "--nodes", "2000", "--feature-dim", "8",
                     "--classes", "4"]) == 0
        capsys.readouterr()
        assert main(["plan", "--dataset-dir", str(out), "--layers", "2",
                     "--fanout", "4", "4", "--gpus", "4"]) == 0
        text = capsys.readouterr().out
        assert "APT selects:" in text

    def test_run_on_dataset_dir(self, capsys, tmp_path):
        out = tmp_path / "ds"
        assert main(["gen", str(out), "--nodes", "2000", "--feature-dim", "8",
                     "--classes", "4"]) == 0
        capsys.readouterr()
        assert main(["run", "--dataset-dir", str(out), "--strategy", "gdp",
                     "--epochs", "1", "--layers", "2", "--fanout", "4", "4",
                     "--gpus", "2"]) == 0
        assert "loss=" in capsys.readouterr().out

    def test_trace_reports_disk_counters(self, capsys, tmp_path):
        import json

        out = tmp_path / "ds"
        assert main(["gen", str(out), "--nodes", "2000", "--feature-dim", "8",
                     "--classes", "4"]) == 0
        capsys.readouterr()
        trace = tmp_path / "t.json"
        assert main(["run", "--dataset-dir", str(out), "--strategy", "gdp",
                     "--epochs", "1", "--layers", "2", "--fanout", "4", "4",
                     "--gpus", "2", "--trace", str(trace), "--json"]) == 0
        disk = json.loads(capsys.readouterr().out)["result"]["disk"]
        assert disk["rows"] > 0
        assert disk["ranged_reads"] > 0

    def test_trace_without_disk_tier_omits_counters(self, capsys, tmp_path):
        import json

        trace = tmp_path / "t.json"
        assert main(["run", "--dataset", "ps", "--nodes", "2500",
                     "--strategy", "gdp", "--epochs", "1", "--layers", "2",
                     "--fanout", "4", "4", "--gpus", "2", "--trace",
                     str(trace), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "disk" not in payload["result"]

    def test_bad_dataset_dir_exits_cleanly(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--dataset-dir", str(tmp_path / "nope"),
                  "--epochs", "1"])
        assert "bad dataset dir" in str(exc.value)


class TestHeterogeneousCli:
    """The §5.17 surface: --cluster, --objective cost, per-device
    utilization in the run report."""

    BASE = ["--dataset", "ps", "--nodes", "2500", "--layers", "2",
            "--fanout", "4", "4", "--batch-per-gpu", "64"]
    HET = ["--cluster", "1x2:a100,1x2:t4"]

    def test_cluster_spec_parsed(self):
        args = build_parser().parse_args(["plan", "--cluster", "1x4:a100"])
        assert args.cluster == "1x4:a100"

    def test_bad_cluster_spec_exits_cleanly(self):
        with pytest.raises(SystemExit) as exc:
            main(["plan", "--cluster", "1x4:h100"] + self.BASE)
        assert "bad --cluster spec" in str(exc.value)

    def test_plan_cost_objective(self, capsys):
        assert main(
            ["plan", "--objective", "cost"] + self.BASE + self.HET
        ) == 0
        out = capsys.readouterr().out
        assert "$/epoch" in out
        assert "Pareto frontier" in out
        assert "@drop" in out  # the device-subset sweep ran

    def test_plan_cost_budget_seconds(self, capsys):
        assert main(
            ["plan", "--objective", "cost", "--budget-seconds", "10"]
            + self.BASE + self.HET
        ) == 0
        assert "time budget" in capsys.readouterr().out

    def test_plan_cost_json_payload(self, capsys):
        import json

        assert main(
            ["plan", "--objective", "cost", "--json"] + self.BASE + self.HET
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        plan = payload["plan"]
        assert plan["objective"] == "cost"
        assert plan["pareto"]
        assert plan["subsets"]
        assert all("dollars" in e for e in plan["estimates"].values())

    def test_run_on_heterogeneous_cluster(self, capsys):
        assert main(
            ["run", "--strategy", "snp", "--epochs", "1"]
            + self.BASE + self.HET
        ) == 0
        assert "loss=" in capsys.readouterr().out

    def test_trace_reports_device_utilization(self, capsys, tmp_path):
        trace = tmp_path / "t.json"
        assert main(
            ["run", "--strategy", "snp", "--epochs", "1", "--trace",
             str(trace)] + self.BASE + self.HET
        ) == 0
        out = capsys.readouterr().out
        assert "per-device utilization" in out
        assert "imbalance ratio" in out

    def test_trace_json_device_block(self, capsys, tmp_path):
        import json

        trace = tmp_path / "t.json"
        assert main(
            ["run", "--strategy", "snp", "--epochs", "1", "--trace",
             str(trace), "--json"] + self.BASE + self.HET
        ) == 0
        devices = json.loads(capsys.readouterr().out)["result"]["devices"]
        assert len(devices["busy_seconds"]) == 4
        assert devices["imbalance_ratio"] >= 1.0
        assert max(devices["utilization"]) <= 1.0 + 1e-9
