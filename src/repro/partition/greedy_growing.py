"""Greedy graph growing (paper §IV-A).

Grows two partitions alternately from random seeds.  The frontier of
the growing partition is a max-gain priority queue, where the gain of
adding ``v`` to the growing part ``P`` is::

    gain(v) = w(v -> P) - w(v -> elsewhere)

Growth hands over to the other part whenever the growing part's
internal edge weight exceeds ``edge_balance`` (1.03, i.e. 3%) times the
other's, and the whole process stops when either part holds at least
half the node weight; remaining nodes join the lighter part.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.graph.overlap_graph import Level

__all__ = ["greedy_grow_bisection"]

_UNASSIGNED = -1


def greedy_grow_bisection(
    graph: Level,
    rng: np.random.Generator,
    edge_balance: float = 1.03,
) -> np.ndarray:
    """Initial bisection labels (0/1) for every node."""
    if edge_balance < 1.0:
        raise ValueError("edge_balance must be >= 1.0")
    n = graph.n_nodes
    labels = np.full(n, _UNASSIGNED, dtype=np.int64)
    if n == 0:
        return labels
    if n == 1:
        labels[0] = 0
        return labels

    node_w = graph.node_weights
    half_weight = 0.5 * graph.total_node_weight
    part_nw = [0.0, 0.0]  # node weight per part
    part_ew = [0.0, 0.0]  # internal edge weight per part
    # Last pushed gain per (part, node); stale heap entries are skipped.
    gains = np.zeros((2, n))
    heaps: list[list[tuple[float, int]]] = [[], []]

    indptr, adj, adj_edge, weights = graph.indptr, graph.adj, graph.adj_edge, graph.weights

    def gain_of(v: int, part: int) -> float:
        lo, hi = indptr[v], indptr[v + 1]
        w = weights[adj_edge[lo:hi]]
        lab = labels[adj[lo:hi]]
        inside = float(w[lab == part].sum())
        return 2.0 * inside - float(w.sum())

    def add_to_part(v: int, part: int) -> None:
        lo, hi = indptr[v], indptr[v + 1]
        w = weights[adj_edge[lo:hi]]
        lab = labels[adj[lo:hi]]
        part_ew[part] += float(w[lab == part].sum())
        labels[v] = part
        part_nw[part] += node_w[v]
        for u in adj[lo:hi].tolist():
            if labels[u] == _UNASSIGNED:
                g = gain_of(u, part)
                gains[part, u] = g
                heapq.heappush(heaps[part], (-g, u))

    def pop_best(part: int) -> int | None:
        heap = heaps[part]
        while heap:
            negg, u = heapq.heappop(heap)
            if labels[u] == _UNASSIGNED and -negg == gains[part, u]:
                return u
        return None

    def random_seed() -> int | None:
        unassigned = np.flatnonzero(labels == _UNASSIGNED)
        if unassigned.size == 0:
            return None
        return int(rng.choice(unassigned))

    growing = 0
    seed = random_seed()
    add_to_part(seed, growing)

    while part_nw[0] < half_weight and part_nw[1] < half_weight:
        # Edge-weight balance (3% bound): hand growth to the other part.
        if part_ew[growing] > edge_balance * part_ew[1 - growing]:
            growing = 1 - growing
        v = pop_best(growing)
        if v is None:
            v = random_seed()
            if v is None:
                break
        add_to_part(v, growing)

    # Remaining nodes go to the lighter part.
    rest = np.flatnonzero(labels == _UNASSIGNED)
    if rest.size:
        lighter = 0 if part_nw[0] <= part_nw[1] else 1
        labels[rest] = lighter
    return labels
