"""Quickstart: the full APT workflow on a small graph.

Runs the paper's Prepare -> Plan -> Adapt -> Run pipeline (Fig. 4): build a
training task, dry-run the four parallelization strategies, let the cost
model pick one, train with it, and report test accuracy.

Run with::

    python examples/quickstart.py
"""

import numpy as np

from repro.cluster import single_machine_cluster
from repro.core import APT
from repro.engine.context import ExecutionContext
from repro.engine.trainer import evaluate_accuracy
from repro.graph.datasets import small_dataset
from repro.models import GraphSAGE
from repro.config import APTConfig


def main() -> None:
    # --- the GNN training task ----------------------------------------- #
    dataset = small_dataset(n=3000, feature_dim=32, num_classes=8, seed=11)
    cluster = single_machine_cluster(
        num_gpus=4, gpu_cache_bytes=0.06 * dataset.feature_bytes
    )
    model = GraphSAGE(
        in_dim=dataset.feature_dim,
        hidden_dim=32,
        num_classes=dataset.num_classes,
        num_layers=2,
        seed=0,
    )
    print(
        f"dataset: {dataset.num_nodes} nodes, "
        f"{dataset.graph.num_edges} edges, {dataset.feature_dim}-d features"
    )
    print(f"cluster: {cluster.num_devices} simulated GPUs on 1 machine")

    # --- Prepare + Plan -------------------------------------------------- #
    apt = APT(dataset, model, cluster, APTConfig(fanouts=(5, 5), global_batch_size=512, seed=0))
    apt.prepare()
    report = apt.plan()
    print("\n" + report.summary())

    # --- Adapt + Run ------------------------------------------------------ #
    result = apt.run(num_epochs=8, lr=5e-3)
    print(f"\ntrained {len(result.epochs)} epochs with {result.strategy}:")
    for e in result.epochs:
        print(
            f"  epoch {e.epoch}: loss={e.mean_loss:.4f} "
            f"simulated_time={e.wall_seconds * 1e3:.3f} ms"
        )

    # --- evaluate --------------------------------------------------------- #
    ctx = ExecutionContext.build(
        dataset, cluster, model, [5, 5], global_batch_size=512
    )
    test_seeds = np.setdiff1d(
        np.arange(dataset.num_nodes), dataset.train_seeds
    )[:2000]
    acc = evaluate_accuracy(ctx, seeds=test_seeds)
    print(f"\ntest accuracy on held-out nodes: {acc:.3f}")


if __name__ == "__main__":
    main()
