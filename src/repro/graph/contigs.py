"""Read-cluster layout and contig consensus.

A cluster of reads representing one contiguous genomic region can be
*laid out*: each read gets an offset such that every overlap edge's
implied relative offset (its delta) is honoured.  Repeat-confused
clusters admit no consistent layout — exactly the property the hybrid
graph's best-representative test uses.  The consensus sequence of a
laid-out cluster is the per-column majority over the stacked reads.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.graph.overlap_graph import OverlapGraph
from repro.io.readset import ReadSet, ragged_positions

__all__ = [
    "cluster_layout_offsets",
    "is_layout_contiguous",
    "overlay_votes",
    "consensus_of_layouts",
    "consensus_from_layout",
    "contig_for_nodes",
]

#: read bases gathered and overlaid per block of whole clusters in
#: :func:`consensus_of_layouts`: bounds its transient arrays (a few
#: int64 per base) whatever the read set.  A block visits every shard
#: its reads live in, so a store pays for small blocks in shard loads.
_MAX_BASES = 1 << 20


def cluster_layout_offsets(
    g0: OverlapGraph, nodes: np.ndarray, tolerance: int = 0
) -> np.ndarray | None:
    """Offsets of ``nodes`` satisfying all induced edge deltas, or None.

    Returns None if the induced subgraph is disconnected or if any
    induced edge disagrees with the BFS-assigned offsets by more than
    ``tolerance`` bases (a repeat signature).  Offsets are normalised
    so the smallest is 0.
    """
    if not g0.has_deltas:
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
            implied = offsets[lv] + g0.edge_delta(eid, v)
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


def is_layout_contiguous(offsets: np.ndarray, lengths: np.ndarray) -> bool:
    """True if the read intervals [offset, offset+length) leave no gap."""
    offsets = np.asarray(offsets, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if offsets.size != lengths.size:
        raise ValueError("offsets/lengths length mismatch")
    order = np.argsort(offsets, kind="stable")
    starts = offsets[order]
    ends = starts + lengths[order]
    reach = np.maximum.accumulate(ends)
    return bool((starts[1:] <= reach[:-1]).all())


def overlay_votes(
    codes: np.ndarray,
    offsets: np.ndarray,
    sizes: np.ndarray,
    weights: np.ndarray | None = None,
    minlength: int = 0,
) -> np.ndarray:
    """Flat ``(column, base)`` vote table of stacked sequences.

    ``codes`` concatenates sequences of ``sizes`` bases, sequence ``i``
    laid at columns ``offsets[i] ...``; cell ``4 * column + base`` of the
    result counts (or, with per-base ``weights``, sums in input order)
    the called bases there — one ``np.bincount``, as long as the last
    voted cell or ``minlength``.
    """
    cell = (ragged_positions(offsets, sizes) << 2) + codes
    called = codes < 4
    if weights is not None:
        weights = weights[called]
    return np.bincount(cell[called], weights=weights, minlength=minlength)


def consensus_of_layouts(
    reads: ReadSet,
    clusters: list[np.ndarray],
    layouts: list[np.ndarray],
    quality_weighted: bool = False,
) -> list[list[np.ndarray]]:
    """:func:`consensus_from_layout` of many non-empty clusters.

    Clusters are taken in blocks of whole clusters of at most
    ``_MAX_BASES`` read bases (a larger cluster is a block by itself):
    one :meth:`ReadSet.gather_reads` and one :func:`overlay_votes` per
    block, each cluster voting in its own run of columns.
    """
    out: list[list[np.ndarray]] = []
    if not clusters:
        return out
    weighted = quality_weighted and reads.has_quals
    nodes = np.concatenate(clusters)
    shifted = np.concatenate([lay - lay.min() for lay in layouts])
    sizes = reads.lengths[nodes]
    first = np.cumsum([0, *(c.size for c in clusters)])
    widths = np.maximum.reduceat(shifted + sizes, first[:-1])
    total = np.cumsum(np.add.reduceat(sizes, first[:-1]))
    cuts = np.searchsorted(total, np.arange(_MAX_BASES, total[-1], _MAX_BASES))
    bounds = np.unique(np.concatenate([[0], cuts, [len(clusters)]])).tolist()
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        members = slice(first[lo], first[hi])
        columns = np.zeros(hi - lo + 1, dtype=np.int64)
        np.cumsum(widths[lo:hi], out=columns[1:])
        codes, starts, quals = reads.gather_reads(nodes[members], quals=weighted)
        at = ragged_positions(starts, sizes[members])
        counts = overlay_votes(
            codes[at],
            np.repeat(columns[:-1], np.diff(first[lo : hi + 1])) + shifted[members],
            sizes[members],
            1.0 - np.power(10.0, -quals[at] / 10.0) if weighted else None,
            minlength=int(columns[-1]) * 4,
        ).reshape(-1, 4)
        consensus = counts.argmax(axis=1).astype(np.uint8)
        covered = counts.sum(axis=1) > 0
        for left, right in zip(columns[:-1].tolist(), columns[1:].tolist()):
            # Split at zero-coverage columns.
            edges = np.flatnonzero(np.diff(covered[left:right])) + left + 1
            out.append(
                [
                    consensus[a:b].copy()
                    for a, b in zip([left, *edges], [*edges, right])
                    if a < b and covered[a]
                ]
            )
    return out


def consensus_from_layout(
    reads: ReadSet,
    nodes: np.ndarray,
    offsets: np.ndarray,
    quality_weighted: bool = False,
) -> list[np.ndarray]:
    """Majority-vote consensus of the stacked reads.

    With ``quality_weighted`` (and reads that carry Phred scores), each
    base's vote is weighted by its probability of being correct,
    ``1 - 10^(-Q/10)`` — low-quality 3' tails then lose ties against
    confident bases instead of splitting them.

    Returns one code array per zero-coverage-separated segment (a
    contiguous layout yields exactly one).
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    offsets = np.asarray(offsets, dtype=np.int64)
    if nodes.size != offsets.size:
        raise ValueError("nodes/offsets length mismatch")
    if nodes.size == 0:
        return []
    return consensus_of_layouts(reads, [nodes], [offsets], quality_weighted)[0]


def contig_for_nodes(
    reads: ReadSet, g0: OverlapGraph, nodes: np.ndarray, tolerance: int = 0
) -> list[np.ndarray] | None:
    """Layout + consensus in one call; None if the cluster has no layout."""
    offsets = cluster_layout_offsets(g0, nodes, tolerance=tolerance)
    if offsets is None:
        return None
    return consensus_from_layout(reads, np.asarray(nodes, dtype=np.int64), offsets)
