"""Heavy edge matching (Karypis & Kumar [15]).

Nodes are visited in random order; an unmatched node matches the
unmatched neighbour sharing its heaviest incident edge.  The matching
drives one coarsening step: matched pairs merge into one coarse node.
"""

from __future__ import annotations

import numpy as np

from repro.graph.overlap_graph import Level
from repro.sequence.kmers import stable_order

__all__ = ["heavy_edge_matching"]


def heavy_edge_matching(graph: Level, rng: np.random.Generator) -> np.ndarray:
    """Return ``match`` where ``match[v]`` is v's partner (or v itself).

    The result is an involution: ``match[match[v]] == v``.  Each CSR row
    is sorted once by preference — heavier edges first, ties in
    adjacency order (``np.argmax``'s rule) — so the walk over the
    ``rng.permutation`` gives each node the first free neighbour of its
    row, with no NumPy call per node.
    """
    n = graph.n_nodes
    order = rng.permutation(n)
    distinct, rank = np.unique(graph.weights, return_inverse=True)
    row = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.indptr))
    heavier_first = distinct.size - 1 - rank[graph.adj_edge]
    prefs = graph.adj[stable_order(row * distinct.size + heavier_first)]
    match = np.full(n, -1, dtype=np.int64)
    mate, nbrs, ptr = memoryview(match), memoryview(prefs), memoryview(graph.indptr)
    for v in order.tolist():  # noqa: PERF002 - greedy walk, one node at a time
        if mate[v] != -1:
            continue
        mate[v] = v
        for i in range(ptr[v], ptr[v + 1]):
            u = nbrs[i]
            if mate[u] == -1:
                mate[v], mate[u] = u, v
                break
    return match
