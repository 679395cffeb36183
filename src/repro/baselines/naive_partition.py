"""Naive graph partitioners (context for Table II).

``hash_partition`` is what de Bruijn assemblers such as AbySS and
SWAP effectively do: assign nodes to processors by hash, ignoring
structure entirely.  ``bfs_block_partition`` is the cheapest
structure-aware heuristic: chunk a BFS order into equal blocks.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.graph.overlap_graph import Level

__all__ = ["hash_partition", "bfs_block_partition"]


def hash_partition(n_nodes: int, k: int, seed: int = 0) -> np.ndarray:
    """Uniform pseudo-random node-to-part assignment."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if n_nodes < 0:
        raise ValueError("n_nodes must be non-negative")
    rng = np.random.default_rng(seed)
    return rng.integers(0, k, size=n_nodes).astype(np.int64)


def bfs_block_partition(graph: Level, k: int) -> np.ndarray:
    """Chunk a BFS traversal order into k equal-node-weight blocks."""
    if k < 1:
        raise ValueError("k must be >= 1")
    n = graph.n_nodes
    labels = np.zeros(n, dtype=np.int64)
    if n == 0:
        return labels
    order: list[int] = []
    seen = np.zeros(n, dtype=bool)
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        queue = deque([start])
        while queue:
            v = queue.popleft()
            order.append(v)
            for u in graph.neighbors(v).tolist():
                if not seen[u]:
                    seen[u] = True
                    queue.append(u)
    target = graph.total_node_weight / k
    part = 0
    acc = 0.0
    for v in order:
        labels[v] = part
        acc += graph.node_weights[v]
        if acc >= target * (part + 1) and part < k - 1:
            part += 1
    return labels
