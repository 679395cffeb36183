"""Scalar reference implementations of cluster layout and the descent.

The readable specification of the paper's best-representative test
(§II-D) that the production ``repro.graph.contigs.layout_clusters`` /
``layout_contiguity`` and ``repro.graph.hybrid._select_representatives``
are checked against: one FIFO queue walk per cluster touching one
adjacency entry per step, one sort per cluster, and a work stack that
tests one coarse node at a time.  The first three functions take one
cluster and give what the batched calls give for it (None for a
cluster ``layout_clusters`` marks not ok); ``select_representatives``
gives ``_select_representatives``' levels.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.graph.csr import split_groups
from tests.reference.finish_loop import edge_delta

__all__ = [
    "cluster_layout_offsets",
    "is_layout_contiguous",
    "is_contiguous_cluster",
    "select_representatives",
]


def cluster_layout_offsets(g0, nodes, tolerance=0):
    """Offsets of ``nodes`` satisfying all induced edge deltas, or None."""
    if getattr(g0, "deltas", None) is None:
        raise ValueError("layout requires a graph with deltas (G0)")
    nodes = np.asarray(nodes, dtype=np.int64)
    if nodes.size == 0:
        raise ValueError("empty cluster")
    local = {int(v): i for i, v in enumerate(nodes)}
    offsets = np.zeros(nodes.size, dtype=np.int64)
    seen = np.zeros(nodes.size, dtype=bool)
    seen[0] = True
    queue = deque([int(nodes[0])])
    n_visited = 1
    while queue:
        v = queue.popleft()
        lv = local[v]
        lo, hi = g0.indptr[v], g0.indptr[v + 1]
        for u, eid in zip(g0.adj[lo:hi].tolist(), g0.adj_edge[lo:hi].tolist()):
            lu = local.get(u)
            if lu is None:
                continue
            implied = offsets[lv] + edge_delta(g0, eid, v)
            if seen[lu]:
                if abs(int(offsets[lu]) - implied) > tolerance:
                    return None
            else:
                offsets[lu] = implied
                seen[lu] = True
                n_visited += 1
                queue.append(u)
    if n_visited != nodes.size:
        return None
    offsets -= offsets.min()
    return offsets


def is_layout_contiguous(offsets, lengths):
    """True if the read intervals [offset, offset+length) leave no gap."""
    offsets = np.asarray(offsets, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    order = np.argsort(offsets, kind="stable")
    starts = offsets[order]
    ends = starts + lengths[order]
    reach = np.maximum.accumulate(ends)
    return bool((starts[1:] <= reach[:-1]).all())


def is_contiguous_cluster(g0, nodes, read_lengths, tolerance=0):
    """Does this G0 node cluster assemble into one contiguous contig?"""
    nodes = np.asarray(nodes, dtype=np.int64)
    if nodes.size == 1:
        return True
    offsets = cluster_layout_offsets(g0, nodes, tolerance=tolerance)
    if offsets is None:
        return False
    return is_layout_contiguous(offsets, read_lengths[nodes])


def select_representatives(mls, read_lengths, tolerance):
    """Per-G0-node level of its best representative (stack descent)."""
    g0 = mls.base
    top = mls.n_levels - 1
    rep_level = np.full(g0.n_nodes, -1, dtype=np.int64)
    clusters = {lvl: split_groups(*mls.members_at_level(lvl)) for lvl in range(mls.n_levels)}
    # Work stack of (level, node-at-level); start from every coarsest node.
    stack = [(top, v) for v in range(mls.graphs[top].n_nodes)]
    while stack:
        level, node = stack.pop()
        members = clusters[level][node]
        if level == 0 or is_contiguous_cluster(g0, members, read_lengths, tolerance):
            rep_level[members] = level
            continue
        # descend into the node's children one level down
        mapping = mls.mappings[level - 1]
        children = np.unique(mls.map_to_level(level - 1)[members])
        for child in children.tolist():
            if mapping[child] == node:
                stack.append((level - 1, child))
    if (rep_level < 0).any():
        raise RuntimeError("representative selection left nodes unassigned")
    return rep_level
