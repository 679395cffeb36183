"""Global k-way Kernighan–Lin refinement (paper §IV-D, after [19]).

Boundary nodes are ranked by gain ``D_v = E_v - I_v``.  The top node is
moved to the neighbouring part with the largest external cost, subject
to the balance rule (no move into a part already >= 1.03x the source
part's node weight).  Moves are locked for the pass; the pass stops
after ``stall_window`` (50) moves without improving the running-maximum
partial gain and rolls back to that maximum.  Passes repeat until no
positive-gain pass remains.  Each graph level of a multilevel/hybrid
set can be refined independently — that is the parallelism Fig. 4's
tail uses.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.graph.overlap_graph import Level
from repro.partition.metrics import internal_external_weights, partition_node_weights

__all__ = ["kway_refine"]


def _external_per_part(
    graph: Level, labels: np.ndarray, v: int
) -> dict[int, float]:
    """Summed edge weight from ``v`` into each *other* part."""
    lo, hi = graph.indptr[v], graph.indptr[v + 1]
    nbrs = graph.adj[lo:hi]
    w = graph.weights[graph.adj_edge[lo:hi]]
    own = labels[v]
    out: dict[int, float] = {}
    for u, wt in zip(labels[nbrs].tolist(), w.tolist()):
        if u != own:
            out[u] = out.get(u, 0.0) + wt
    return out


def kway_refine(
    graph: Level,
    labels: np.ndarray,
    k: int | None = None,
    balance: float = 1.03,
    stall_window: int = 50,
    max_passes: int = 4,
) -> tuple[np.ndarray, float]:
    """Refine a k-way partitioning; returns (labels copy, total gain)."""
    labels = np.asarray(labels, dtype=np.int64).copy()
    if labels.size != graph.n_nodes:
        raise ValueError("labels must cover every node")
    if balance < 1.0:
        raise ValueError("balance must be >= 1.0")
    if labels.size == 0:
        return labels, 0.0
    k = int(labels.max()) + 1 if k is None else k

    node_w = graph.node_weights
    total_gain = 0.0

    for _ in range(max_passes):
        internal, external = internal_external_weights(graph, labels)
        part_nw = partition_node_weights(graph, labels, k).astype(np.float64)
        locked = np.zeros(graph.n_nodes, dtype=bool)
        gains = external - internal
        heap = [(-gains[v], v) for v in np.flatnonzero(external > 0).tolist()]
        heapq.heapify(heap)

        moves: list[tuple[int, int, int]] = []  # (node, from, to)
        cum = 0.0
        s_max = 0.0
        s_max_idx = -1
        since_improve = 0

        while heap:
            negg, v = heapq.heappop(heap)
            if locked[v] or -negg != gains[v]:
                continue
            src = int(labels[v])
            ext = _external_per_part(graph, labels, v)
            best_part, best_ext = -1, -np.inf
            for part, wt in ext.items():
                if part_nw[part] >= balance * part_nw[src]:
                    continue  # balance rule blocks this move
                if wt > best_ext:
                    best_part, best_ext = part, wt
            if best_part < 0:
                locked[v] = True
                continue
            gain = best_ext - internal[v]
            # Apply the move.
            labels[v] = best_part
            part_nw[src] -= node_w[v]
            part_nw[best_part] += node_w[v]
            locked[v] = True
            moves.append((v, src, best_part))
            cum += gain
            if cum > s_max:
                s_max = cum
                s_max_idx = len(moves) - 1
                since_improve = 0
            else:
                since_improve += 1
                if since_improve >= stall_window:
                    break
            # Incremental I/E updates for v and its neighbours.
            lo, hi = graph.indptr[v], graph.indptr[v + 1]
            nbrs = graph.adj[lo:hi]
            w = graph.weights[graph.adj_edge[lo:hi]]
            for u, wt in zip(nbrs.tolist(), w.tolist()):
                if labels[u] == src:
                    internal[u] -= wt
                    external[u] += wt
                elif labels[u] == best_part:
                    internal[u] += wt
                    external[u] -= wt
                if not locked[u]:
                    gains[u] = external[u] - internal[u]
                    if external[u] > 0:
                        heapq.heappush(heap, (-gains[u], u))
            own = 0.0
            other = 0.0
            for u, wt in zip(labels[nbrs].tolist(), w.tolist()):
                if u == best_part:
                    own += wt
                else:
                    other += wt
            internal[v] = own
            external[v] = other

        # Roll back past the best prefix.
        for v, src, dst in reversed(moves[s_max_idx + 1 :]):
            labels[v] = src
        if s_max <= 0:
            break
        total_gain += s_max
    return labels, total_gain
