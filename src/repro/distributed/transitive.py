"""Distributed transitive edge reduction (paper §V-A, after Myers [4]).

An edge v->u (delta ``d_u > 0``) is transitive if some closer
right-neighbour w (``0 < d_w < d_u``) has its own edge w->u whose delta
equals ``d_u - d_w`` (within a tolerance): the long overlap is implied
by the two short ones.  The per-partition kernel scans the nodes of
one partition and proposes transitive edge ids; the master merge
removes them.  Edges crossing partitions may be proposed by both
owners — removal is idempotent, exactly as the paper notes.
"""

from __future__ import annotations

import numpy as np

from repro.distributed.dgraph import DistributedAssemblyGraph, sorted_unique
from repro.distributed.stages import register_stage, union_proposals
from repro.io.readset import ragged_positions

__all__ = [
    "find_transitive_edges",
    "transitive_kernel",
    "apply_transitive",
]


#: (far, near) row pairs expanded per block: bounds the kernel's
#: transient arrays (~64 bytes per pair, measured) whatever the degrees.
_MAX_PAIRS = 1 << 21


def find_transitive_edges(
    dag: DistributedAssemblyGraph, nodes: np.ndarray, tolerance: int = 2
) -> np.ndarray:
    """Sorted transitive edge ids discoverable from the given nodes.

    An edge v->u (delta ``du > 0``) is transitive iff some right
    neighbour w of v (``0 < dw < du``, strict — delta ties are never
    witnesses) has an alive edge to u whose delta from w is within
    ``tolerance`` of ``du - dw``.  Every far row v->u of the partition
    is paired with every nearer right row v->w of the same source, and
    one batched lookup of the closing edges w-u runs the delta check on
    all pairs at once — the masked sparse product ``A_right @ A``
    evaluated on the pattern of ``A_right`` (diBELLA's reduction step).
    """
    nodes = sorted_unique(np.asarray(nodes, dtype=np.int64))
    g = dag.graph
    # Right-extending rows of the partition's own nodes; rows come
    # grouped by node and the nodes are sorted, so a source's right
    # rows are one contiguous run.
    rows, degrees = dag.rows_of(nodes)
    right = g.adj_delta[rows] > 0
    rows = rows[right]
    if rows.size == 0:
        return np.empty(0, dtype=np.int64)
    src = np.repeat(nodes, degrees)[right]
    first = np.searchsorted(src, src, side="left")
    fan = np.searchsorted(src, src, side="right") - first
    # Blocks of far rows whose pair count stays under the budget.
    total = np.cumsum(fan)
    cuts = np.searchsorted(total, np.arange(_MAX_PAIRS, total[-1], _MAX_PAIRS))
    transitive = []
    bounds = np.concatenate([[0], cuts, [rows.size]])
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        far = np.repeat(rows[lo:hi], fan[lo:hi])
        near = rows[ragged_positions(first[lo:hi], fan[lo:hi])]
        dw, du = g.adj_delta[near], g.adj_delta[far]
        closer = dw < du
        far, near, gap = far[closer], near[closer], (du - dw)[closer]
        # Witness check: alive edge w-u whose delta from w matches du - dw.
        d_wu, found = dag.pair_deltas(g.adj[near], g.adj[far])
        hit = found & (np.abs(d_wu - gap) <= tolerance)
        transitive.append(g.adj_edge[far[hit]])
    return sorted_unique(np.concatenate(transitive))


def transitive_kernel(
    dag: DistributedAssemblyGraph, part: int, tolerance: int = 2
) -> np.ndarray:
    """Pure kernel: transitive edge ids proposed by one partition."""
    return find_transitive_edges(dag, dag.partition_nodes(part), tolerance)


def apply_transitive(
    dag: DistributedAssemblyGraph, proposals, **_params
) -> int:
    """Master merge: union the proposals and kill the edges."""
    return dag.remove_edges(union_proposals(proposals))


register_stage("transitive", transitive_kernel, apply_transitive)
