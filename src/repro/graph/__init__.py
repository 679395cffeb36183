"""Assembly graphs: overlap graph, multilevel coarsening, hybrid graph set.

This package implements the graph-theoretic heart of Focus (paper
§II-C/D and §III): the overlap graph built from read alignments, its
iterative coarsening by heavy-edge matching into a *multilevel graph
set*, and the *hybrid graph set* assembled from best-representative
nodes — the structure that encodes the biological knowledge that DNA
is linear.

Every graph is a :class:`Level` (weighted nodes and edges in CSR form),
and each level of either set is built from the level below it by one
contraction, :meth:`Level.contract`.  Only G0 and the enriched hybrid
graph are :class:`OverlapGraph` instances, whose edges also carry the
layout deltas.
"""

from repro.graph.coarsen import CoarsenConfig, MultilevelGraphSet, build_multilevel_set, coarsen_once
from repro.graph.contigs import (
    cluster_layout_offsets,
    consensus_from_layout,
    contig_for_nodes,
    layout_clusters,
)
from repro.graph.csr import build_csr
from repro.graph.hybrid import HybridGraphSet, build_hybrid_set, is_contiguous_cluster
from repro.graph.matching import heavy_edge_matching
from repro.graph.overlap_graph import Level, OverlapGraph

__all__ = [
    "Level",
    "OverlapGraph",
    "build_csr",
    "heavy_edge_matching",
    "CoarsenConfig",
    "MultilevelGraphSet",
    "build_multilevel_set",
    "coarsen_once",
    "HybridGraphSet",
    "build_hybrid_set",
    "is_contiguous_cluster",
    "layout_clusters",
    "cluster_layout_offsets",
    "consensus_from_layout",
    "contig_for_nodes",
]
