"""Multilevel graph partitioning — the paper's core contribution.

The pipeline follows Karypis–Kumar multilevel recursive bisection
(paper §IV): greedy graph growing seeds an initial bisection on the
coarsest graph, 2-way Kernighan–Lin refines it, the partition is
projected and refined down the graph levels, parts are recursively
bisected to ``k = 2^i`` parts, and a global k-way Kernighan–Lin pass
polishes every level.

The biological-knowledge variant runs the same machinery with the
*hybrid* graph as the finest level instead of the full overlap graph,
then maps the partition onto the overlap graph through the hybrid
cluster membership.
"""

from repro.partition.greedy_growing import greedy_grow_bisection
from repro.partition.kl import kl_refine_bisection
from repro.partition.kway import kway_refine
from repro.partition.metrics import (
    edge_cut,
    edge_cut_fraction,
    node_weight_balance,
    partition_node_weights,
)
from repro.partition.multilevel import (
    PartitionResult,
    partition_graph_set,
    partition_via_hybrid,
    partition_via_multilevel,
)
from repro.partition.recursive import PartitionConfig, TaskRecord, recursive_bisection

__all__ = [
    "greedy_grow_bisection",
    "kl_refine_bisection",
    "kway_refine",
    "edge_cut",
    "edge_cut_fraction",
    "partition_node_weights",
    "node_weight_balance",
    "PartitionConfig",
    "TaskRecord",
    "recursive_bisection",
    "PartitionResult",
    "partition_graph_set",
    "partition_via_hybrid",
    "partition_via_multilevel",
]
