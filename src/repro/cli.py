"""Command-line interface: ``python -m repro <command>``.

Commands mirror the APT workflow — training *and* serving share the same
task flags, the same ``--json`` output path, and the same common flags
(``--seed``, ``--checkpoint-dir``, ``--inject``):

``plan``
    Dry-run the strategies on a dataset analog and print the cost-model
    ranking.  ``--objective epoch`` (default) ranks by epoch seconds (the
    paper's Plan step); ``--objective latency`` ranks by predicted p99
    per-request serving latency at ``--policy`` (DESIGN.md §5.13).
``run``
    Train with a chosen (or auto-selected) strategy and report simulated
    epoch times and losses.  ``--inject FILE`` applies a fault schedule
    (see :mod:`repro.cluster.faults`); ``--replan`` turns on drift-
    triggered re-planning with mid-run strategy switching.
``trace``
    Run one strategy and write a ``chrome://tracing`` JSON of the
    simulated timeline (``run --trace FILE`` writes the same for any run,
    whatever other flags it carries).
``serve``
    Answer a seeded synthetic request stream from a trained model with
    dynamic batching (``--policy "<max_batch>:<max_wait_ms>"``) and report
    the latency percentiles.  ``--checkpoint-dir`` serves the latest
    checkpoint (auto-training one first when the directory is empty).
``gen``
    Generate an on-disk streaming dataset directory (chunked generators,
    memory-mapped features).  ``plan``/``run``/``trace``/``serve`` consume
    it via ``--dataset-dir``; the feature store then activates its disk
    tier and trains without the feature matrix ever being fully resident.
``loadgen``
    Emit the synthetic request stream itself (for offline inspection or
    replay): Zipf skew, bursts, diurnal modulation, hot-set drift.
``compare``
    Run every strategy from the same initial model and print the paper-
    style epoch-time table.
``report``
    Summarize saved benchmark results (``benchmarks/results/*.json``).

Examples::

    python -m repro plan --dataset fs --hidden 32 --json
    python -m repro plan --objective latency --policy 32:2
    python -m repro run --dataset ps --strategy auto --epochs 3
    python -m repro run --inject faults.json --replan --epochs 8 --json
    python -m repro trace --strategy dnp --out trace.json
    python -m repro gen /tmp/ds --nodes 1000000 --feature-dim 128
    python -m repro run --dataset-dir /tmp/ds --epochs 2 --json
    python -m repro serve --requests 2048 --policy 32:2 --checkpoint-dir ck/
    python -m repro loadgen --requests 512 --rate 800 --drift-every 0.2
    python -m repro compare --dataset fs --machines 4 --gpus 16 --hybrid
    python -m repro report
"""

from __future__ import annotations

import argparse
import json
import pathlib
from typing import Optional

from repro.cluster import (
    multi_machine_cluster,
    parse_cluster_spec,
    single_machine_cluster,
)
from repro.config import APTConfig, PAPER_CACHE_GB, scaled_gpu_cache_bytes
from repro.core import APT
from repro.graph import load_dataset, open_streaming_dataset, write_streaming_dataset
from repro.models import GAT, GCN, GraphSAGE


def _add_task_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dataset", choices=("ps", "fs", "im"), default="fs",
                   help="dataset analog (paper Table 2 abbreviations)")
    p.add_argument("--dataset-dir", metavar="DIR", default=None,
                   help="train on an on-disk streaming dataset directory "
                        "(from `repro gen`) instead of --dataset/--nodes; "
                        "features stay memory-mapped and the store's disk "
                        "tier activates (DESIGN.md §5.14)")
    p.add_argument("--nodes", type=int, default=12_000,
                   help="analog size in nodes")
    p.add_argument("--partition", choices=("metis", "streaming", "random"),
                   default=None,
                   help="graph partitioner (default: metis; --dataset-dir "
                        "defaults to the coarsen-once streaming partitioner)")
    p.add_argument("--disk-promote-mb", type=int, default=None,
                   help="hot-row promotion budget of the disk tier in MiB "
                        "(default 64; 0 disables promotion)")
    p.add_argument("--model", choices=("sage", "gat", "gcn"), default="sage")
    p.add_argument("--hidden", type=int, default=32,
                   help="hidden dim (GAT: per-head dim)")
    p.add_argument("--layers", type=int, default=3)
    p.add_argument("--heads", type=int, default=4, help="GAT attention heads")
    p.add_argument("--fanout", type=int, nargs="+", default=None,
                   help="per-layer fanouts, input layer first")
    p.add_argument("--machines", type=int, default=1)
    p.add_argument("--gpus", type=int, default=8, help="total GPUs")
    p.add_argument("--cluster", metavar="SPEC", default=None,
                   help="heterogeneous cluster spec overriding --machines/"
                        "--gpus: comma-separated '<count>x<gpus>:<class>' "
                        "groups, e.g. '1x4:a100,2x4:t4' (classes: t4, v100, "
                        "a100, cpu; DESIGN.md §5.17)")
    p.add_argument("--cache-gb", type=float, default=PAPER_CACHE_GB,
                   help="per-GPU cache (paper-GB, rescaled to the analog)")
    p.add_argument("--batch-per-gpu", type=int, default=128)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--backend", choices=("serial", "process"), default=None,
                   help="execution backend (default: REPRO_EXECUTION_BACKEND "
                        "env var or 'serial'); 'process' samples batches in a "
                        "shared-memory worker pool with pipelined prefetch")
    p.add_argument("--workers", type=int, default=None,
                   help="process-backend pool size (default: auto)")
    p.add_argument("--prefetch-depth", type=int, default=None,
                   help="global batches sampled ahead of the numerics "
                        "(0 disables pipelining; default 2)")


def _add_common_flags(
    p: argparse.ArgumentParser, *, checkpoint: bool = False, inject: bool = False
) -> None:
    """The output/state flags every workflow command shares."""
    p.add_argument("--json", action="store_true",
                   help="emit the command's report as JSON instead of text")
    if checkpoint:
        p.add_argument("--checkpoint-dir", metavar="DIR", default=None,
                       help="checkpoint directory (run: write into it; "
                            "serve: load the latest checkpoint from it, "
                            "auto-training one first when empty)")
    if inject:
        p.add_argument("--inject", metavar="FILE", default=None,
                       help="JSON fault schedule to apply at epoch boundaries")


def _add_loadgen_args(p: argparse.ArgumentParser) -> None:
    """Request-stream shape flags shared by ``serve`` and ``loadgen``."""
    p.add_argument("--requests", type=int, default=2048,
                   help="number of requests to generate/answer")
    p.add_argument("--loadgen-seed", type=int, default=None,
                   help="request-stream seed (default: --seed)")
    p.add_argument("--rate", type=float, default=1000.0,
                   help="open-loop arrival rate in requests per simulated "
                        "second; 0 = closed loop (fully backlogged)")
    p.add_argument("--zipf-a", type=float, default=1.2,
                   help="Zipf popularity exponent (> 1)")
    p.add_argument("--drift-every", type=float, default=0.0,
                   help="rotate the hot set every SECONDS (0 disables)")
    p.add_argument("--drift-shift", type=int, default=None,
                   help="popularity ranks rotated per drift window")
    p.add_argument("--burst-every", type=float, default=0.0)
    p.add_argument("--burst-len", type=float, default=0.0)
    p.add_argument("--burst-factor", type=float, default=4.0)
    p.add_argument("--diurnal-period", type=float, default=0.0)
    p.add_argument("--diurnal-amplitude", type=float, default=0.0)


def _make_loadgen(args, num_nodes: int):
    from repro.serve import LoadGenerator

    seed = args.loadgen_seed if args.loadgen_seed is not None else args.seed
    return LoadGenerator(
        num_nodes,
        seed=seed,
        rate=args.rate if args.rate > 0 else None,
        zipf_a=args.zipf_a,
        drift_every=args.drift_every,
        drift_shift=args.drift_shift,
        burst_every=args.burst_every,
        burst_len=args.burst_len,
        burst_factor=args.burst_factor,
        diurnal_period=args.diurnal_period,
        diurnal_amplitude=args.diurnal_amplitude,
    )


def _build(args, quiet: bool = False) -> APT:
    dataset_dir = getattr(args, "dataset_dir", None)
    if dataset_dir is not None:
        try:
            ds = open_streaming_dataset(dataset_dir)
        except (FileNotFoundError, ValueError) as exc:
            raise SystemExit(f"error: bad dataset dir {dataset_dir!r}: {exc}")
    else:
        ds = load_dataset(args.dataset, n=args.nodes)
    cache = scaled_gpu_cache_bytes(ds, args.cache_gb) if args.cache_gb > 0 else 0.0
    if getattr(args, "cluster", None) is not None:
        try:
            cluster = parse_cluster_spec(args.cluster, gpu_cache_bytes=cache)
        except ValueError as exc:
            raise SystemExit(f"error: bad --cluster spec: {exc}")
    elif args.machines == 1:
        cluster = single_machine_cluster(args.gpus, gpu_cache_bytes=cache)
    else:
        cluster = multi_machine_cluster(
            args.machines, args.gpus // args.machines, gpu_cache_bytes=cache
        )
    if args.model == "sage":
        model = GraphSAGE(ds.feature_dim, args.hidden, ds.num_classes,
                          args.layers, seed=args.seed)
    elif args.model == "gcn":
        model = GCN(ds.feature_dim, args.hidden, ds.num_classes,
                    args.layers, seed=args.seed)
    else:
        model = GAT(ds.feature_dim, args.hidden, ds.num_classes,
                    args.layers, args.heads, seed=args.seed)
    fanouts = args.fanout or [10] * args.layers
    config_kwargs = dict(
        fanouts=tuple(fanouts),
        global_batch_size=cluster.num_devices * args.batch_per_gpu,
        seed=args.seed,
    )
    # Only override the config's defaults when flags were given.
    if args.backend is not None:
        config_kwargs["execution_backend"] = args.backend
    if args.workers is not None:
        config_kwargs["num_workers"] = args.workers
    if args.prefetch_depth is not None:
        config_kwargs["prefetch_depth"] = args.prefetch_depth
    if getattr(args, "checkpoint_dir", None) is not None:
        config_kwargs["checkpoint_dir"] = args.checkpoint_dir
    if getattr(args, "checkpoint_every", None) is not None:
        config_kwargs["checkpoint_every"] = args.checkpoint_every
    if getattr(args, "checkpoint_keep", None) is not None:
        config_kwargs["checkpoint_keep"] = args.checkpoint_keep
    if getattr(args, "no_elastic", False):
        config_kwargs["elastic"] = False
    if getattr(args, "partition", None) is not None:
        config_kwargs["partition"] = args.partition
    elif dataset_dir is not None:
        # Out-of-core graphs default to the coarsen-once partitioner — the
        # full multilevel METIS analog would materialize per-level copies.
        config_kwargs["partition"] = "streaming"
    if getattr(args, "disk_promote_mb", None) is not None:
        config_kwargs["disk_promote_mb"] = args.disk_promote_mb
    apt = APT(ds, model, cluster, APTConfig(**config_kwargs))
    apt.prepare()
    if not quiet:
        source = dataset_dir if dataset_dir is not None else args.dataset
        print(
            f"task: {source} ({ds.num_nodes} nodes, "
            f"{ds.graph.num_edges} edges, d={ds.feature_dim}), "
            f"{args.model} x{args.layers}, fanouts={fanouts}, "
            f"{cluster.num_devices} GPUs on {cluster.num_machines} machine(s)"
        )
    return apt


def _load_schedule(args):
    """Split one ``--inject`` payload into its simulated and host halves.

    The same file drives both layers: an ``events`` section degrades the
    simulated cluster at epoch boundaries, a ``host_events`` section
    injects real process faults (kill/hang/corrupt/leak) into the worker
    pool.  Returns ``(FaultSchedule | None, HostFaultSchedule | None)``.
    """
    from repro.parallel.chaos import split_injections

    if getattr(args, "inject", None) is None:
        return None, None
    try:
        return split_injections(args.inject)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise SystemExit(f"error: bad fault schedule {args.inject!r}: {exc}")


def _strategy_spec(value: str) -> str:
    """argparse type for ``--strategy``: 'auto', a single strategy name, or
    a per-layer composition ``layerwise:<s0>,<s1>,...``."""
    from repro.engine import STRATEGIES, is_layerwise_spec, parse_layerwise

    v = value.strip().lower()
    if v == "auto" or v in STRATEGIES:
        return v
    if is_layerwise_spec(v):
        try:
            parse_layerwise(v)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))
        return v
    raise argparse.ArgumentTypeError(
        f"unknown strategy {value!r}: expected auto, one of "
        f"{sorted(STRATEGIES)}, or 'layerwise:<s0>,<s1>,...'"
    )


def _batching_policy(text: str):
    """``--policy`` parsed, or a one-line ``error:`` exit."""
    from repro.serve import BatchingPolicy

    try:
        return BatchingPolicy.parse(text)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")


def cmd_plan(args) -> int:
    if args.objective == "latency":
        policy = _batching_policy(args.policy)
    apt = _build(args, quiet=args.json)
    candidates = None
    if args.strategy:
        candidates = [s for s in args.strategy if s != "auto"] or None
    if args.objective == "latency":
        report = apt.plan(
            strategies=candidates,
            objective="latency",
            batch_size=policy.max_batch_size,
            max_wait_s=policy.max_wait_s,
        )
        header = (
            "\ncost-model estimates (predicted per-request serving "
            f"latency at policy {args.policy}):"
        )
    elif args.layerwise:
        report = apt.plan_layerwise(beam_width=args.beam_width)
        header = (
            "\ncost-model estimates (beam-searched per-layer compositions "
            "+ single strategies, seconds per epoch):"
        )
    elif args.objective == "cost":
        report = apt.plan(
            strategies=candidates,
            objective="cost",
            budget_seconds=args.budget_seconds,
            budget_dollars=args.budget_dollars,
        )
        header = (
            "\ncost-model estimates (two-objective: epoch seconds and "
            "dollars per epoch, cheapest first):"
        )
    else:
        report = apt.plan(
            strategies=candidates, budget_dollars=args.budget_dollars
        )
        header = "\ncost-model estimates (strategy-specific seconds per epoch):"
    if args.json:
        print(report.to_json(indent=2))
        return 0
    print(header)
    print(report.summary())
    plan = report.plan
    if plan.objective == "cost" and plan.pareto:
        print("\n(time, $) Pareto frontier, fastest first:")
        for name in plan.pareto:
            e = plan.estimates[name]
            note = ""
            meta = plan.subsets.get(name)
            if meta is not None:
                note = (
                    f"  [drops machine {meta['dropped_machine']}: "
                    f"{meta['devices']} device(s) left]"
                )
            print(f"  {name}: {e.total:.4f}s  ${e.dollars:.3e}/epoch{note}")
    if plan.layer_assignments:
        print("\nper-layer assignments:")
        for name in plan.ranking:
            if name in plan.layer_assignments:
                layers = " -> ".join(plan.layer_assignments[name])
                nbytes = plan.relayout_bytes.get(name, 0.0)
                print(f"  {name}: {layers} (re-layout {nbytes / 1e3:.1f} KB)")
    print(f"\nAPT selects: {report.chosen}")
    return 0


def _write_trace(report, path: str) -> None:
    """Chrome-trace JSON of every trainer segment of a finished run."""
    with open(path, "w") as fh:
        json.dump(report.result.chrome_trace(), fh)


def cmd_run(args) -> int:
    apt = _build(args, quiet=args.json)
    strategy: Optional[str] = None if args.strategy == "auto" else args.strategy
    faults, chaos = _load_schedule(args)
    if chaos is not None:
        apt.config.host_chaos = chaos
    try:
        report = apt.run(
            num_epochs=args.epochs,
            strategy=strategy,
            lr=args.lr,
            faults=faults,
            replan=True if args.replan else None,
            resume=args.resume,
        )
    except (RuntimeError, ValueError, FileNotFoundError) as exc:
        # e.g. a membership change with elastic execution disabled, or a
        # --resume directory without a checkpoint (FileNotFoundError) or
        # with one written under other result-determining flags (ValueError)
        raise SystemExit(f"error: {exc}")
    if args.trace:
        _write_trace(report, args.trace)
    if args.json:
        print(report.to_json(indent=2))
        return 0
    result = report.result
    print(f"\nran {len(result.epochs)} epoch(s) with {result.strategy}:")
    for e in result.epochs:
        print(
            f"  epoch {e.epoch}: loss={e.mean_loss:.4f} "
            f"simulated={e.wall_seconds * 1e3:.3f} ms "
            f"({e.num_batches} batches, {e.strategy})"
        )
    bd = result.breakdown
    print("breakdown:", {k: f"{v * 1e3:.3f}ms" for k, v in bd.items()})
    for rp in report.replans:
        verb = "switched to" if rp.switched else "re-planned, stayed on"
        print(
            f"re-plan after epoch {rp.epoch}: drift {rp.drift.max_abs:.2f} "
            f"on {rp.drift.worst_term}; {verb} {rp.new_strategy}"
        )
    if report.collector is not None:
        for ev in report.collector.events:
            if ev.kind in ("host_leave", "host_join"):
                verb = "left" if ev.kind == "host_leave" else "joined"
                machine = ev.data.get("machine")
                who = f"machine {machine}" if machine is not None else "a machine"
                cls = ev.data.get("device_class")
                if cls is not None:
                    who += f" ({cls})"
                print(
                    f"{who} {verb} at epoch "
                    f"{ev.epoch}: {ev.data.get('devices_before')} -> "
                    f"{ev.data.get('devices_after')} devices"
                )
            elif ev.kind == "repartition":
                print(
                    f"re-partitioned ({ev.data.get('mode')}) for "
                    f"{ev.data.get('devices_after')} devices at epoch "
                    f"{ev.epoch}"
                )
            elif ev.kind == "elastic_replan" and ev.data.get("switched"):
                print(
                    f"elastic re-plan at epoch {ev.epoch}: switched "
                    f"{ev.data.get('old')} -> {ev.data.get('chosen')}"
                )
    if faults is not None and not report.faults:
        print("fault schedule supplied but no fault fired within the run")
    if args.trace:
        print(f"chrome trace written to {args.trace}")
    return 0


def cmd_trace(args) -> int:
    apt = _build(args, quiet=args.json)
    name = args.strategy
    if name == "auto":
        name = apt.plan().chosen
    report = apt.run_strategy(name, args.epochs, lr=args.lr)
    _write_trace(report, args.out)
    result = report.result
    results, disk = result.epochs, result.disk
    devices = result.timeline.utilization()
    layerwise = None
    if name.startswith("layerwise:"):
        layerwise = {
            "layer_assignment": name[len("layerwise:"):].split(","),
            "relayout_bytes": result.recorder.total_relayout_bytes(),
            "relayout_layer_bytes": {
                str(layer): nbytes
                for layer, nbytes in sorted(
                    result.recorder.relayout_layer_bytes.items()
                )
            },
        }
    if args.json:
        payload = {
            "strategy": name,
            "trace_path": args.out,
            "epochs": [
                {
                    "epoch": e.epoch,
                    "mean_loss": e.mean_loss,
                    "wall_seconds": e.wall_seconds,
                    "num_batches": e.num_batches,
                }
                for e in results
            ],
        }
        payload["devices"] = devices
        if disk is not None:
            payload["disk"] = disk
        if layerwise is not None:
            payload["layerwise"] = layerwise
        print(json.dumps(payload, indent=2))
        return 0
    print(f"ran {len(results)} epoch(s) with {name}; "
          f"chrome trace written to {args.out}")
    print("  per-device utilization "
          f"(wall {devices['wall_seconds'] * 1e3:.3f} ms):")
    for d, (busy, util) in enumerate(
        zip(devices["busy_seconds"], devices["utilization"])
    ):
        print(f"    device {d}: busy {busy * 1e3:.3f} ms ({util:.1%})")
    print(f"  max/min busy imbalance ratio: "
          f"{devices['imbalance_ratio']:.3f}")
    if layerwise is not None:
        print("  per-layer strategies:", " -> ".join(layerwise["layer_assignment"]))
        print(f"  re-layout traffic: "
              f"{layerwise['relayout_bytes'] / 1e3:.1f} KB total", end="")
        per = layerwise["relayout_layer_bytes"]
        if per:
            detail = ", ".join(
                f"layer {layer}: {nbytes / 1e3:.1f} KB"
                for layer, nbytes in per.items()
            )
            print(f" ({detail})")
        else:
            print(" (all re-layouts device-local)")
    if disk is not None:
        print(f"  disk tier: {disk['rows']:.0f} rows "
              f"({disk['bytes'] / 2**20:.1f} MiB) in "
              f"{disk['ranged_reads']:.0f} ranged reads; "
              f"{disk['promotions']:.0f} rows promoted over "
              f"{disk['refreshes']:.0f} refreshes "
              f"({disk['resident_rows']} resident)")
    return 0


def cmd_serve(args) -> int:
    from repro.config import ServeConfig
    from repro.core.checkpoint import CheckpointManager
    from repro.serve import ServeEngine

    policy = _batching_policy(args.policy)
    apt = _build(args, quiet=args.json)
    checkpoint_dir = args.checkpoint_dir
    if checkpoint_dir is not None and CheckpointManager(
        checkpoint_dir
    ).latest() is None:
        # Empty/missing checkpoint directory: train a model into it first,
        # so `repro serve --checkpoint-dir fresh/` works in one command.
        if not args.json:
            print(f"no checkpoint under {checkpoint_dir!r}; training "
                  f"{args.train_epochs} epoch(s) first")
        apt.config.checkpoint_dir = checkpoint_dir
        apt.run(num_epochs=args.train_epochs)
        apt.config.checkpoint_dir = None
    elif checkpoint_dir is None and args.train_epochs > 0:
        apt.run(num_epochs=args.train_epochs)
    config = ServeConfig(
        max_batch_size=policy.max_batch_size,
        max_wait_s=policy.max_wait_s,
        cache_policy=args.cache_policy,
        drift_threshold=args.drift_threshold,
        drift_window=args.drift_window,
    )
    engine = ServeEngine(
        apt,
        config=config,
        strategy=None if args.strategy == "auto" else args.strategy,
        checkpoint_dir=checkpoint_dir,
    )
    stream = _make_loadgen(args, apt.dataset.num_nodes).generate(args.requests)
    report = engine.serve(stream)
    if args.json:
        print(report.to_json(indent=2))
        return 0
    lat, svc = report.latency, report.service
    print(f"\nserved {report.num_requests} requests in "
          f"{report.num_batches} batches with {report.strategy} "
          f"(policy {args.policy}, cache {config.cache_policy}):")
    print(f"  latency  p50={lat['p50'] * 1e3:.3f}ms "
          f"p90={lat['p90'] * 1e3:.3f}ms p99={lat['p99'] * 1e3:.3f}ms")
    print(f"  service  p50={svc['p50'] * 1e3:.3f}ms "
          f"p99={svc['p99'] * 1e3:.3f}ms; "
          f"throughput {report.throughput_rps:.0f} req/s (simulated)")
    print(f"  cache hit fraction {report.cache['hit_fraction']:.3f}; "
          f"{len(report.replans)} drift-triggered re-plan(s)")
    print(f"  responses digest {report.responses_digest}")
    return 0


def cmd_gen(args) -> int:
    out = write_streaming_dataset(
        args.out,
        num_nodes=args.nodes,
        avg_degree=args.avg_degree,
        feature_dim=args.feature_dim,
        num_classes=args.classes,
        kind=args.kind,
        seed=args.seed,
        train_fraction=args.train_fraction,
        exponent=args.exponent,
    )
    import numpy as np

    with open(out / "meta.json") as fh:
        meta = json.load(fh)
    num_train = int(np.load(out / "train_seeds.npy").size)
    if args.json:
        print(json.dumps(
            {"path": str(out), "num_train_seeds": num_train, "meta": meta},
            indent=2,
        ))
        return 0
    feat_bytes = (
        meta["num_nodes"] * meta["feature_dim"]
        * np.dtype(meta["feature_dtype"]).itemsize
    )
    print(f"wrote streaming dataset to {out}:")
    print(f"  {meta['num_nodes']} nodes, {meta['num_edges']} edges "
          f"({meta['kind']}, seed {meta['seed']})")
    print(f"  features {meta['num_nodes']}x{meta['feature_dim']} "
          f"({feat_bytes / 2**20:.1f} MiB on disk, never fully resident)")
    print(f"  {num_train} train seeds, {meta['num_classes']} classes")
    print(f"train on it with: repro run --dataset-dir {out}")
    return 0


def cmd_loadgen(args) -> int:
    gen = _make_loadgen(args, args.nodes)
    stream = gen.generate(args.requests)
    payload = {
        "generator": gen.to_dict(),
        "num_requests": len(stream),
        "requests": [
            {"request_id": r.request_id, "node": r.node, "arrival": r.arrival}
            for r in stream
        ],
    }
    if args.output is not None:
        with open(args.output, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        if not args.json:
            print(f"wrote {len(stream)} requests to {args.output}")
            return 0
    if args.json or args.output is None:
        print(json.dumps(payload, indent=2))
    return 0


def cmd_compare(args) -> int:
    apt = _build(args)
    strategies = ["gdp", "nfp", "snp", "dnp"]
    if args.hybrid:
        strategies.append("hyb")
    results = apt.compare_all(
        num_epochs=1, numerics=not args.full, strategies=tuple(strategies)
    )
    plan = apt.plan()
    print(f"\n{'strategy':>9} {'epoch time':>12}  breakdown")
    for name in strategies:
        r = results[name]
        bd = " ".join(f"{k}={v * 1e3:.3f}ms" for k, v in r.breakdown.items())
        marker = " <- APT" if name == plan.chosen else ""
        print(f"{name:>9} {r.epoch_seconds * 1e3:>10.3f}ms  {bd}{marker}")
    best = min(results, key=lambda n: results[n].epoch_seconds)
    print(f"\nactual best: {best}; APT selected: {plan.chosen}")
    return 0


def cmd_report(args) -> int:
    results_dir = pathlib.Path(args.results_dir)
    files = sorted(results_dir.glob("*.json"))
    if not files:
        print(f"no results found under {results_dir} — run "
              "`pytest benchmarks/ --benchmark-only` first")
        return 1
    print(f"benchmark results in {results_dir}:\n")
    for path in files:
        with open(path) as fh:
            payload = json.load(fh)
        summary = _summarize_result(path.stem, payload)
        print(f"  {path.stem:<28} {summary}")
    return 0


def _summarize_result(name: str, payload: dict) -> str:
    """One-line digest of a saved benchmark payload."""
    if "records" in payload and isinstance(payload["records"], list):
        records = payload["records"]
        with_choice = [r for r in records if "apt_choice" in r and "best" in r]
        if with_choice:
            hits = sum(r["apt_choice"] == r["best"] for r in with_choice)
            return f"{len(records)} cases, APT optimal in {hits}/{len(with_choice)}"
        return f"{len(records)} cases"
    if "curves" in payload:
        return f"{len(payload['curves'])} accuracy curves"
    if "table" in payload:
        rows = ", ".join(
            f"{k}: nfp {v.get('nfp', float('nan')):.1f}x"
            for k, v in payload["table"].items()
        )
        return f"max speedup over fixed strategies ({rows})"
    if "max_error" in payload:
        return f"cost-model max |error| {payload['max_error'] * 100:.1f}%"
    if "ours" in payload and "paper" in payload:
        return "ours-vs-paper table"
    return f"{len(payload)} top-level entries"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="APT (PPoPP'25) reproduction — adaptive parallel GNN training",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_plan = sub.add_parser("plan", help="dry-run strategies and rank them")
    _add_task_args(p_plan)
    _add_common_flags(p_plan)
    p_plan.add_argument("--objective", choices=("epoch", "latency", "cost"),
                        default="epoch",
                        help="rank by epoch seconds (training), predicted "
                             "p99 per-request latency (serving), or dollars "
                             "per epoch (cost; sweeps device subsets and "
                             "reports the (time, $) Pareto frontier)")
    p_plan.add_argument("--budget-seconds", type=float, default=None,
                        metavar="S",
                        help="with --objective cost: pick the cheapest "
                             "candidate whose epoch time fits S seconds")
    p_plan.add_argument("--budget-dollars", type=float, default=None,
                        metavar="D",
                        help="with --objective epoch: pick the fastest "
                             "candidate costing at most D dollars per epoch")
    p_plan.add_argument("--policy", default="32:2", metavar="B:MS",
                        help="serving batch policy '<max_batch>:<max_wait_ms>'"
                             " scored by --objective latency")
    p_plan.add_argument("--strategy", type=_strategy_spec, nargs="+",
                        default=None, metavar="SPEC",
                        help="explicit candidate set to rank (names and/or "
                             "layerwise:<s0>,<s1>,... specs); default: the "
                             "config's single-strategy candidates")
    p_plan.add_argument("--layerwise", action="store_true",
                        help="beam-search per-layer strategy compositions "
                             "(DESIGN.md §5.15) instead of ranking a fixed "
                             "candidate set")
    p_plan.add_argument("--beam-width", type=int, default=3,
                        help="beam width of the --layerwise search")
    p_plan.set_defaults(func=cmd_plan)

    p_run = sub.add_parser("run", help="train with a strategy")
    _add_task_args(p_run)
    _add_common_flags(p_run, checkpoint=True, inject=True)
    p_run.add_argument("--strategy", default="auto", type=_strategy_spec,
                       metavar="SPEC",
                       help="auto, gdp/nfp/snp/dnp/hyb, or a per-layer "
                            "composition 'layerwise:<s0>,<s1>,...' (one "
                            "name per model layer)")
    p_run.add_argument("--epochs", type=int, default=3)
    p_run.add_argument("--lr", type=float, default=1e-3)
    p_run.add_argument("--trace", metavar="FILE", default=None,
                       help="write a chrome://tracing JSON of the run")
    p_run.add_argument("--replan", action="store_true",
                       help="re-plan (and possibly hot-switch strategy) when "
                            "observed phase times drift from the estimates")
    p_run.add_argument("--checkpoint-every", type=int, default=None,
                       metavar="N", help="checkpoint cadence in epochs "
                                         "(default 1)")
    p_run.add_argument("--checkpoint-keep", type=int, default=None,
                       metavar="N", help="checkpoints retained per "
                                         "directory (default 3)")
    p_run.add_argument("--no-elastic", action="store_true",
                       help="fail on host_leave/host_join membership "
                            "events instead of re-partitioning and "
                            "continuing on the changed cluster")
    p_run.add_argument("--resume", metavar="DIR", default=None,
                       help="continue from the latest checkpoint in DIR; "
                            "the remaining epochs reproduce the "
                            "uninterrupted run bit for bit")
    p_run.set_defaults(func=cmd_run)

    p_trace = sub.add_parser(
        "trace", help="run one strategy and write a chrome://tracing JSON"
    )
    _add_task_args(p_trace)
    _add_common_flags(p_trace)
    p_trace.add_argument("--strategy", default="auto", type=_strategy_spec,
                         metavar="SPEC",
                         help="auto, a single strategy, or "
                              "'layerwise:<s0>,<s1>,...'")
    p_trace.add_argument("--epochs", type=int, default=1)
    p_trace.add_argument("--lr", type=float, default=1e-3)
    p_trace.add_argument("--out", metavar="FILE", default="trace.json",
                         help="chrome trace output path")
    p_trace.set_defaults(func=cmd_trace)

    p_serve = sub.add_parser(
        "serve", help="answer a synthetic request stream from a trained model"
    )
    _add_task_args(p_serve)
    _add_common_flags(p_serve, checkpoint=True)
    _add_loadgen_args(p_serve)
    p_serve.add_argument("--strategy", default="auto", type=_strategy_spec,
                         metavar="SPEC",
                         help="serving strategy (auto: checkpointed strategy, "
                              "else the latency-objective planner's choice); "
                              "accepts 'layerwise:<s0>,<s1>,...' specs")
    p_serve.add_argument("--policy", default="32:2", metavar="B:MS",
                         help="dynamic batching policy "
                              "'<max_batch>:<max_wait_ms>' (e.g. 32:2)")
    p_serve.add_argument("--cache-policy", choices=("adaptive", "static"),
                         default="adaptive",
                         help="adaptive: re-key the GPU feature cache from "
                              "observed request hotness under drift; static: "
                              "keep the training census keying")
    p_serve.add_argument("--drift-window", type=int, default=8,
                         help="batches per serve-side drift window")
    p_serve.add_argument("--drift-threshold", type=float, default=0.35,
                         help="serve-side drift trigger (relative error)")
    p_serve.add_argument("--train-epochs", type=int, default=2,
                         help="epochs to train when no checkpoint exists "
                              "(0 serves the untrained model)")
    p_serve.set_defaults(func=cmd_serve)

    p_gen = sub.add_parser(
        "gen", help="generate an on-disk streaming dataset directory"
    )
    p_gen.add_argument("out", metavar="DIR",
                       help="output dataset directory (created if missing)")
    p_gen.add_argument("--nodes", type=int, default=1_000_000,
                       help="graph size in nodes")
    p_gen.add_argument("--avg-degree", type=float, default=8.0)
    p_gen.add_argument("--feature-dim", type=int, default=128)
    p_gen.add_argument("--classes", type=int, default=16,
                       help="number of label classes")
    p_gen.add_argument("--kind", choices=("power_law", "rmat"),
                       default="power_law", help="graph generator family")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--train-fraction", type=float, default=0.01,
                       help="fraction of nodes used as training seeds")
    p_gen.add_argument("--exponent", type=float, default=2.0,
                       help="power-law degree exponent")
    _add_common_flags(p_gen)
    p_gen.set_defaults(func=cmd_gen)

    p_lg = sub.add_parser(
        "loadgen", help="emit a seeded synthetic request stream as JSON"
    )
    _add_common_flags(p_lg)
    _add_loadgen_args(p_lg)
    p_lg.add_argument("--nodes", type=int, default=12_000,
                      help="size of the node id space requests draw from")
    p_lg.add_argument("--seed", type=int, default=0)
    p_lg.add_argument("--output", metavar="FILE", default=None,
                      help="write the stream to FILE instead of stdout")
    p_lg.set_defaults(func=cmd_loadgen)

    p_cmp = sub.add_parser("compare", help="epoch-time table for all strategies")
    _add_task_args(p_cmp)
    p_cmp.add_argument("--hybrid", action="store_true",
                       help="include the GDPxSNP hybrid")
    p_cmp.add_argument("--full", action="store_true",
                       help="run real numerics (slower) instead of timing-only")
    p_cmp.set_defaults(func=cmd_compare)

    p_rep = sub.add_parser("report", help="summarize saved benchmark results")
    p_rep.add_argument(
        "--results-dir",
        default=str(pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "results"),
    )
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
