"""Graph substrate: CSR storage, synthetic generators, datasets, partitioning.

The paper evaluates on OGBN-Papers100M, Friendster, and IGB260M.  Those
graphs (52-128 GB of features) cannot be hosted here, so
:mod:`repro.graph.datasets` provides *scale-model analogs* generated to match
the statistics the paper's evaluation attributes the strategy trade-offs to:
node-access skewness under fanout sampling (paper Table 3), degree skew, and
feature dimensionality.  :mod:`repro.graph.partition` provides a multilevel
edge-cut partitioner standing in for METIS, plus the random baseline used in
paper Fig. 11.
"""

from repro.graph.csr import CSRGraph
from repro.graph.datasets import GraphDataset, fs_like, im_like, load_dataset, ps_like
from repro.graph.generators import power_law_graph, rmat_graph, community_graph
from repro.graph.io import (
    is_dataset_dir,
    load_dataset_file,
    load_partition,
    open_streaming_dataset,
    save_dataset,
    save_partition,
    write_dataset_dir,
    write_streaming_dataset,
)
from repro.graph.metrics import edge_cut_fraction, partition_balance, replication_factor
from repro.graph.partition import (
    CoarseningHierarchy,
    metis_like_partition,
    random_partition,
    streaming_partition,
)

__all__ = [
    "CSRGraph",
    "GraphDataset",
    "ps_like",
    "fs_like",
    "im_like",
    "load_dataset",
    "power_law_graph",
    "rmat_graph",
    "community_graph",
    "metis_like_partition",
    "CoarseningHierarchy",
    "random_partition",
    "streaming_partition",
    "save_dataset",
    "load_dataset_file",
    "is_dataset_dir",
    "open_streaming_dataset",
    "write_dataset_dir",
    "write_streaming_dataset",
    "save_partition",
    "load_partition",
    "edge_cut_fraction",
    "partition_balance",
    "replication_factor",
]
