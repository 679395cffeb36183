"""2-way Kernighan–Lin refinement (paper §IV-B).

Implements the O(n^2 log n) variant: nodes of each part live in
priority order by their D value (D = external - internal cost), node
pairs are enumerated in decreasing ``D_a + D_b`` via the diagonal-scan
strategy of Dutt [18] (stop as soon as the remaining pair sums cannot
beat the best gain seen), swapped pairs are locked, and the pass is cut
short once ``stall_window`` (50) consecutive exchanges fail to improve
the running maximum partial gain.  The pass is rolled back to the
prefix with maximal partial gain; passes repeat until no positive gain
remains.  A swap makes no NumPy call: a pass keeps its state in Python
lists (docs/algorithms.md, "Partitioning").
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, insort

import numpy as np

from repro.graph.overlap_graph import Level
from repro.partition.metrics import internal_external_weights

__all__ = ["kl_refine", "kl_refine_bisection"]


def _best_pair(
    order0: list[tuple[float, int]],
    order1: list[tuple[float, int]],
    d: list[float],
    node_w: list[int],
    weight_to: dict[int, dict[int, float]],
    part_w: list[float],
    max_scan: int,
    node_balance: float,
) -> tuple[int, int, float] | None:
    """Diagonal scan for the max-gain swap pair between two parts.

    ``order0``/``order1`` are each part's unlocked nodes as ``(-D,
    node)``, ascending; the first ``max_scan`` pairs ``(i, j)`` by
    ``(-(D_a + D_b), i, j)`` are visited.  A pair is admissible only if
    swapping it keeps the node-weight imbalance within ``node_balance``
    (or improves it) — coarse nodes carry unequal weights, and
    unconstrained swaps would let the partition drift arbitrarily far
    from half/half.  Row ``i``'s pairs of one sum are consecutive in
    that order, so each such run is walked in place, off the heap.
    """
    if not order0 or not order1:
        return None
    p0, p1 = part_w
    # max(p0 + s, p1 - s) must stay within the balance bound or the
    # current maximum, whichever is larger.
    limit = max(node_balance * ((p0 + p1) / 2.0), max(p0, p1))
    n0, n1 = len(order0), len(order1)
    best: tuple[int, int, float] | None = None
    gmax = -np.inf
    # Enumerate (i, j) by decreasing d0[i] + d1[j]: a row's next pair
    # joins the heap once its run ends, and (i+1, 0) from j == 0.
    heap = [(order0[0][0] + order1[0][0], 0, 0)]
    scanned = 0
    while heap and scanned < max_scan:
        neg_sum, i, j = heapq.heappop(heap)
        if -neg_sum <= gmax:
            break
        neg_da, a = order0[i]
        if j == 0 and i + 1 < n0:
            heapq.heappush(heap, (order0[i + 1][0] + order1[0][0], i + 1, 0))
        w_a, row_a = node_w[a], weight_to.get(a, {})
        start, stop = j, min(n1, j + max_scan - scanned)
        while j < stop:
            neg_db, b = order1[j]
            if neg_da + neg_db != neg_sum:
                break
            j += 1
            shift = node_w[b] - w_a
            if p0 + shift <= limit and p1 - shift <= limit:
                gain = d[a] + d[b] - 2.0 * row_a.get(b, 0.0)
                if gain > gmax:
                    gmax = gain
                    best = (a, b, gain)
                    if -neg_sum <= gmax:
                        return best
        scanned += j - start
        if j < n1:
            heapq.heappush(heap, (neg_da + order1[j][0], i, j))
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

    n = graph.n_nodes
    node_w = graph.node_weights.tolist()
    ptr, adj = graph.indptr.tolist(), graph.adj.tolist()
    w_adj = graph.weights[graph.adj_edge].tolist()
    # Each node's {neighbour: weight}; an isolated node has none.
    weight_to = {
        v: dict(zip(adj[ptr[v] : ptr[v + 1]], w_adj[ptr[v] : ptr[v + 1]]))
        for v in np.flatnonzero(np.diff(graph.indptr)).tolist()
    }
    total_gain = 0.0

    for _ in range(max_passes):
        internal, external = internal_external_weights(graph, labels)
        d = (external - internal).tolist()
        part = labels.tolist()
        part_w = [
            float(graph.node_weights[labels == 0].sum()),
            float(graph.node_weights[labels == 1].sum()),
        ]
        locked = [False] * n
        order = ([], [])
        for v in range(n):
            order[part[v]].append((-d[v], v))
        order[0].sort()
        order[1].sort()
        swaps: list[tuple[int, int]] = []
        cum = 0.0
        s_max = 0.0
        s_max_idx = -1
        since_improve = 0

        while True:
            pair = _best_pair(
                order[0], order[1], d, node_w, weight_to, part_w, max_scan, node_balance
            )
            if pair is None:
                break
            a, b, gain = pair
            part[a], part[b] = 1, 0
            shift = node_w[b] - node_w[a]
            part_w[0] += shift
            part_w[1] -= shift
            locked[a] = locked[b] = True
            del order[0][bisect_left(order[0], (-d[a], a))]
            del order[1][bisect_left(order[1], (-d[b], b))]
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
            for moved, left_part in ((a, 0), (b, 1)):
                for x, w in weight_to.get(moved, {}).items():
                    if locked[x]:
                        continue
                    keys = order[part[x]]
                    del keys[bisect_left(keys, (-d[x], x))]
                    if part[x] == left_part:
                        d[x] += 2.0 * w
                    else:
                        d[x] -= 2.0 * w
                    insort(keys, (-d[x], x))

        # Roll back to the best prefix.
        for a, b in reversed(swaps[s_max_idx + 1 :]):
            part[a], part[b] = 0, 1
        labels = np.array(part, dtype=np.int64)
        if s_max <= 0:
            return labels, total_gain, True
        total_gain += s_max
    return labels, total_gain, False
