"""Distributed containment removal and false-edge filtering (paper §V-B).

The per-partition kernel aligns each of its nodes' contigs against
neighbouring contigs.  A node whose contig is contained in a
neighbour's (at sufficient identity) is redundant and proposed for
removal; an edge whose implied contig overlap is shorter than 50 bp is
a false positive and also proposed.  The master merge applies both
removal sets.
"""

from __future__ import annotations

import numpy as np

from repro.distributed.dgraph import DistributedAssemblyGraph, sorted_unique
from repro.distributed.stages import register_stage, union_proposals
from repro.io.readset import ragged_positions

__all__ = [
    "find_containments",
    "containment_kernel",
    "apply_containments",
]


def _batched_identities(
    contigs: list[np.ndarray],
    lengths: np.ndarray,
    v: np.ndarray,
    u: np.ndarray,
    start: np.ndarray,
) -> np.ndarray:
    """Identity of ``contigs[v[i]]`` vs ``contigs[u[i]][start[i]:...]``.

    Geometry is pre-filtered so every slice fits.  Only the contigs the
    rows name are flattened; every base pair of every row is then
    compared in one ragged gather and summed back per row —
    ``hamming_identity`` over all rows at once.
    """
    if v.size == 0:
        return np.zeros(0, dtype=np.float64)
    used, local = np.unique(np.concatenate([v, u]), return_inverse=True)
    flat = np.concatenate([contigs[i] for i in used.tolist()])
    offsets = np.zeros(used.size + 1, dtype=np.int64)
    np.cumsum(lengths[used], out=offsets[1:])
    inner_len = lengths[v]
    inner = flat[ragged_positions(offsets[local[: v.size]], inner_len)]
    outer = flat[ragged_positions(offsets[local[v.size :]] + start, inner_len)]
    row = np.repeat(np.arange(v.size, dtype=np.int64), inner_len)
    matches = np.bincount(row[inner == outer], minlength=v.size)
    # hamming_identity's empty-sequence convention: identity 1.
    return np.where(inner_len > 0, matches / np.maximum(inner_len, 1), 1.0)


def find_containments(
    dag: DistributedAssemblyGraph,
    nodes: np.ndarray,
    min_overlap: int = 50,
    min_identity: float = 0.9,
) -> tuple[np.ndarray, np.ndarray]:
    """(contained node ids, false-positive edge ids) seen from ``nodes``.

    A node's scan ends at its first containment hit, so a
    short-overlap edge *after* that hit is never proposed by this
    node.  "After" is the graph's adjacency order, the order of the
    node's CSR rows, so the first hit is the smallest hit row.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    empty = np.empty(0, dtype=np.int64)
    rows, degrees = dag.rows_of(nodes)
    if rows.size == 0:
        return empty, empty
    g = dag.graph
    contigs = dag.assembly.contigs
    lengths = dag.assembly.contig_lengths
    owner = np.repeat(np.arange(nodes.size, dtype=np.int64), degrees)
    v, nbrs, d = nodes[owner], g.adj[rows], g.adj_delta[rows]
    len_v, len_u = lengths[v], lengths[nbrs]
    overlap = np.minimum(len_v, d + len_u) - np.maximum(0, d)
    short = overlap < min_overlap
    # Geometric containment of v in u, with the mutual-containment
    # tie-break (coextensive contigs keep the lower id).
    covered = (d <= 0) & (d + len_u >= len_v)
    proper = (d < 0) | (d + len_u > len_v)
    geom = ~short & covered & (proper | (v > nbrs))
    hits = np.flatnonzero(geom)
    ident = np.zeros(rows.size, dtype=np.float64)
    ident[hits] = _batched_identities(
        contigs, lengths, v[hits], nbrs[hits], -d[hits]
    )
    hit = geom & (ident >= min_identity)
    # First containment hit per node, in adjacency order, ends its scan.
    end = g.adj.size
    first_hit = np.full(nodes.size, end, dtype=np.int64)
    np.minimum.at(first_hit, owner[hit], rows[hit])
    dead_nodes = nodes[first_hit < end]
    dead_edge_rows = short & (rows < first_hit[owner])
    return (
        sorted_unique(dead_nodes),
        sorted_unique(g.adj_edge[rows[dead_edge_rows]]),
    )


def containment_kernel(
    dag: DistributedAssemblyGraph,
    part: int,
    min_overlap: int = 50,
    min_identity: float = 0.9,
) -> tuple[np.ndarray, np.ndarray]:
    """Pure kernel: (node ids, edge ids) proposed by one partition."""
    return find_containments(
        dag, dag.partition_nodes(part), min_overlap, min_identity
    )


def apply_containments(
    dag: DistributedAssemblyGraph, proposals, **_params
) -> tuple[int, int]:
    """Master merge: union node/edge proposals; returns removal counts."""
    nodes = union_proposals([p[0] for p in proposals])
    edges = union_proposals([p[1] for p in proposals])
    return dag.remove_nodes(nodes), dag.remove_edges(edges)


register_stage("containment", containment_kernel, apply_containments)
