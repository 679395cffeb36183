"""Scalar reference of heavy-edge matching (Karypis & Kumar [15]).

The readable specification ``repro.graph.matching`` is checked
against: nodes in ``rng.permutation(n)`` order, each unmatched node
takes the free neighbour on its heaviest incident edge (``np.argmax``:
the first such slot in adjacency order on a tie), one NumPy slice per
node.
"""

from __future__ import annotations

import numpy as np

from repro.graph.overlap_graph import Level

__all__ = ["heavy_edge_matching"]


def heavy_edge_matching(graph: Level, rng: np.random.Generator) -> np.ndarray:
    """``match[v]`` is v's partner, or v itself."""
    n = graph.n_nodes
    match = np.full(n, -1, dtype=np.int64)
    order = rng.permutation(n)
    indptr, adj, adj_edge, weights = graph.indptr, graph.adj, graph.adj_edge, graph.weights
    for v in order.tolist():
        if match[v] != -1:
            continue
        lo, hi = indptr[v], indptr[v + 1]
        nbrs = adj[lo:hi]
        if nbrs.size:
            free = match[nbrs] == -1
            if free.any():
                w = weights[adj_edge[lo:hi]]
                cand = np.where(free, w, -np.inf)
                u = int(nbrs[np.argmax(cand)])
                match[v] = u
                match[u] = v
                continue
        match[v] = v
    return match
