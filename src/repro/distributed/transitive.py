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

from repro.distributed.dgraph import DistributedAssemblyGraph
from repro.distributed.stages import register_stage, union_proposals
from repro.graph.sparse import boolean_product_keys, masked_view, ragged_positions

__all__ = [
    "find_transitive_edges",
    "transitive_kernel",
    "apply_transitive",
]


def find_transitive_edges(
    dag: DistributedAssemblyGraph, nodes: np.ndarray, tolerance: int = 2
) -> np.ndarray:
    """Sorted transitive edge ids discoverable from the given nodes.

    An edge v->u (delta ``du > 0``) is transitive iff some right
    neighbour w of v (``0 < dw < du``, strict — delta ties are never
    witnesses) has an alive edge to u whose delta from w is within
    ``tolerance`` of ``du - dw``.  The boolean sparse product
    ``A_right @ A`` (diBELLA's reduction step) prunes to (v, u) pairs
    that have *some* 2-path before the exact delta check runs on the
    surviving triples.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    view = masked_view(dag)
    if nodes.size == 0 or view.src.size == 0:
        return np.empty(0, dtype=np.int64)
    in_part = np.zeros(view.n_nodes, dtype=bool)
    in_part[nodes] = True
    r_src, r_dst, r_delta, r_eid = view.right()
    keep = in_part[r_src]
    r_src, r_dst, r_delta, r_eid = (
        r_src[keep],
        r_dst[keep],
        r_delta[keep],
        r_eid[keep],
    )
    if r_src.size == 0:
        return np.empty(0, dtype=np.int64)
    # Prefilter: candidate far edges are those with at least one 2-path.
    two_hop = boolean_product_keys(r_src, r_dst, view)
    key = r_src * view.n_nodes + r_dst
    pos = np.searchsorted(two_hop, key)
    pos = np.minimum(pos, two_hop.size - 1)
    cand = two_hop[pos] == key
    c_src, c_dst, c_delta, c_eid = (
        r_src[cand],
        r_dst[cand],
        r_delta[cand],
        r_eid[cand],
    )
    if c_src.size == 0:
        return np.empty(0, dtype=np.int64)
    # Expand every candidate far edge against all right rows of its
    # source — the near-witness candidates.  Right rows inherit the
    # view's (src, dst) sort, so a per-source CSR is a bincount away.
    r_counts = np.bincount(r_src, minlength=view.n_nodes).astype(np.int64)
    r_indptr = np.zeros(view.n_nodes + 1, dtype=np.int64)
    np.cumsum(r_counts, out=r_indptr[1:])
    counts = r_counts[c_src]
    mids = ragged_positions(r_indptr[c_src], counts)
    far = np.repeat(np.arange(c_src.size, dtype=np.int64), counts)
    w = r_dst[mids]
    dw = r_delta[mids]
    near_ok = dw < c_delta[far]
    far, w, dw = far[near_ok], w[near_ok], dw[near_ok]
    # Witness check: alive edge w-u whose delta from w matches du - dw.
    d_wu, found = view.pair_deltas(w, c_dst[far])
    hit = found & (np.abs(d_wu - (c_delta[far] - dw)) <= tolerance)
    return np.unique(c_eid[far[hit]])


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
