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

Read clusters have one form, ragged ``(members, first)``: cluster ``i``
is ``members[first[i]:first[i+1]]``.  Layout, the contiguity test and
the consensus each take every cluster in one call, and the hybrid set
keeps the layouts its selection accepted (``read_offsets``), so each
``H0`` cluster is laid out once.
"""

from repro.graph.coarsen import CoarsenConfig, MultilevelGraphSet, build_multilevel_set, coarsen_once
from repro.graph.contigs import layout_clusters
from repro.graph.csr import build_csr
from repro.graph.hybrid import HybridGraphSet, build_hybrid_set
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
    "layout_clusters",
]
