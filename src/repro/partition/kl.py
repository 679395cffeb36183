"""2-way Kernighan–Lin refinement (paper §IV-B).

Implements the O(n^2 log n) variant: nodes of each part live in
priority order by their D value (D = external - internal cost), node
pairs are enumerated in decreasing ``D_a + D_b`` via the diagonal-scan
strategy of Dutt [18] (stop as soon as the remaining pair sums cannot
beat the best gain seen), swapped pairs are locked, and the pass is cut
short once ``stall_window`` (50) consecutive exchanges fail to improve
the running maximum partial gain.  The pass is rolled back to the
prefix with maximal partial gain; passes repeat until no positive gain
remains.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.graph.overlap_graph import Level
from repro.partition.metrics import internal_external_weights

__all__ = ["kl_refine", "kl_refine_bisection", "edge_weight_between"]


def edge_weight_between(graph: Level, a: int, b: int) -> float:
    """Weight of edge (a, b), or 0.0 if absent (scans the smaller side)."""
    if graph.indptr[a + 1] - graph.indptr[a] > graph.indptr[b + 1] - graph.indptr[b]:
        a, b = b, a
    lo, hi = graph.indptr[a], graph.indptr[a + 1]
    nbrs = graph.adj[lo:hi]
    hit = np.flatnonzero(nbrs == b)
    if hit.size == 0:
        return 0.0
    return float(graph.weights[graph.adj_edge[lo + hit[0]]])


def _best_pair(
    graph: Level,
    d: np.ndarray,
    cand0: np.ndarray,
    cand1: np.ndarray,
    max_scan: int,
    part_w: np.ndarray,
    node_balance: float,
) -> tuple[int, int, float] | None:
    """Diagonal scan for the max-gain swap pair between two parts.

    ``cand0``/``cand1`` are unlocked nodes sorted by D descending.  A
    pair is admissible only if swapping it keeps the node-weight
    imbalance within ``node_balance`` (or improves it) — coarse nodes
    carry unequal weights, and unconstrained swaps would let the
    partition drift arbitrarily far from half/half.
    """
    if cand0.size == 0 or cand1.size == 0:
        return None
    node_w = graph.node_weights
    ideal = part_w.sum() / 2.0
    cur_max = part_w.max()
    best: tuple[int, int, float] | None = None
    gmax = -np.inf
    # Enumerate (i, j) by decreasing d0[i] + d1[j]:
    # push (i, j+1) always, (i+1, j) only from j == 0 (unique coverage).
    heap = [(-(d[cand0[0]] + d[cand1[0]]), 0, 0)]
    scanned = 0
    while heap and scanned < max_scan:
        neg_sum, i, j = heapq.heappop(heap)
        dsum = -neg_sum
        if dsum <= gmax:
            break
        a, b = int(cand0[i]), int(cand1[j])
        scanned += 1
        shift = node_w[b] - node_w[a]
        new_max = max(part_w[0] + shift, part_w[1] - shift)
        if new_max <= node_balance * ideal or new_max <= cur_max:
            gain = d[a] + d[b] - 2.0 * edge_weight_between(graph, a, b)
            if gain > gmax:
                gmax = gain
                best = (a, b, gain)
        if j + 1 < cand1.size:
            heapq.heappush(heap, (-(d[cand0[i]] + d[cand1[j + 1]]), i, j + 1))
        if j == 0 and i + 1 < cand0.size:
            heapq.heappush(heap, (-(d[cand0[i + 1]] + d[cand1[0]]), i + 1, 0))
    return best


def kl_refine_bisection(
    graph: Level,
    labels: np.ndarray,
    stall_window: int = 50,
    max_passes: int = 8,
    max_scan: int = 400,
    node_balance: float = 1.1,
) -> tuple[np.ndarray, float]:
    """Refine a 0/1 bisection in place-style; returns (labels, total gain).

    ``labels`` is not modified; a refined copy is returned together
    with the total edge-cut improvement achieved across passes.
    """
    labels, gain, _ = kl_refine(graph, labels, stall_window, max_passes, max_scan, node_balance)
    return labels, gain


def kl_refine(
    graph: Level,
    labels: np.ndarray,
    stall_window: int = 50,
    max_passes: int = 8,
    max_scan: int = 400,
    node_balance: float = 1.1,
) -> tuple[np.ndarray, float, bool]:
    """:func:`kl_refine_bisection`, and whether it converged: its last
    pass found no positive gain and rolled back, so — KL being
    deterministic — another call on the same graph and labels would
    return them unchanged."""
    labels = np.asarray(labels, dtype=np.int64).copy()
    if labels.size != graph.n_nodes:
        raise ValueError("labels must cover every node")
    if labels.size == 0:
        return labels, 0.0, True
    if set(np.unique(labels).tolist()) - {0, 1}:
        raise ValueError("bisection labels must be 0/1")

    total_gain = 0.0
    indptr, adj, adj_edge, weights = graph.indptr, graph.adj, graph.adj_edge, graph.weights

    for _ in range(max_passes):
        internal, external = internal_external_weights(graph, labels)
        d = external - internal
        locked = np.zeros(graph.n_nodes, dtype=bool)
        part_w = np.array(
            [
                float(graph.node_weights[labels == 0].sum()),
                float(graph.node_weights[labels == 1].sum()),
            ]
        )
        swaps: list[tuple[int, int]] = []
        cum = 0.0
        s_max = 0.0
        s_max_idx = -1
        since_improve = 0

        while True:
            free = ~locked
            cand0 = np.flatnonzero(free & (labels == 0))
            cand1 = np.flatnonzero(free & (labels == 1))
            cand0 = cand0[np.argsort(-d[cand0], kind="stable")]
            cand1 = cand1[np.argsort(-d[cand1], kind="stable")]
            pair = _best_pair(graph, d, cand0, cand1, max_scan, part_w, node_balance)
            if pair is None:
                break
            a, b, gain = pair
            labels[a], labels[b] = 1, 0
            shift = graph.node_weights[b] - graph.node_weights[a]
            part_w[0] += shift
            part_w[1] -= shift
            locked[a] = locked[b] = True
            swaps.append((a, b))
            cum += gain
            if cum > s_max:
                s_max = cum
                s_max_idx = len(swaps) - 1
                since_improve = 0
            else:
                since_improve += 1
                if since_improve >= stall_window:
                    break
            # D updates (KL): x in P0 gains 2w(x,a) - 2w(x,b); P1 mirrored.
            for moved, joined_part in ((a, 1), (b, 0)):
                lo, hi = indptr[moved], indptr[moved + 1]
                nbrs = adj[lo:hi]
                w = weights[adj_edge[lo:hi]]
                left_part = 1 - joined_part  # part the node departed
                same = labels[nbrs] == left_part
                d[nbrs[same]] += 2.0 * w[same]
                other = labels[nbrs] == joined_part
                d[nbrs[other]] -= 2.0 * w[other]

        # Roll back to the best prefix.
        for a, b in reversed(swaps[s_max_idx + 1 :]):
            labels[a], labels[b] = 0, 1
        if s_max <= 0:
            return labels, total_gain, True
        total_gain += s_max
    return labels, total_gain, False
