"""Read-cluster layout and contig consensus.

A cluster of reads representing one contiguous genomic region can be
*laid out*: each read gets an offset such that every overlap edge's
implied relative offset (its delta) is honoured.  Repeat-confused
clusters admit no consistent layout — exactly the property the hybrid
graph's best-representative test uses.  The consensus sequence of a
laid-out cluster is the per-column majority over the stacked reads.
"""

from __future__ import annotations

import numpy as np

from repro.graph.overlap_graph import OverlapGraph
from repro.io.readset import ReadSet, ragged_positions

__all__ = [
    "layout_clusters",
    "layout_contiguity",
    "overlay_votes",
    "vote_winners",
    "consensus_of_layouts",
]

#: read bases gathered and overlaid per block of whole clusters in
#: :func:`consensus_of_layouts`: bounds its transient arrays (a few
#: int64 per base) whatever the read set.  A block visits every shard
#: its reads live in, so a store pays for small blocks in shard loads.
_MAX_BASES = 1 << 20


def layout_clusters(
    g0: OverlapGraph, members: np.ndarray, first: np.ndarray, tolerance: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Lay out many disjoint clusters of G0 nodes in one pass.

    Cluster ``i`` is ``members[first[i]:first[i+1]]`` (non-empty; no
    node listed twice) and is rooted at its first member.  Returns
    ``(offsets, ok)``: ``offsets[j]`` places ``members[j]``, normalised
    so each cluster's smallest is 0; ``ok[i]`` is False — and the
    cluster's offsets meaningless — if its induced subgraph is
    disconnected or some induced edge disagrees with the offsets by
    more than ``tolerance`` bases (a repeat signature).

    All clusters advance together in one level-synchronous BFS.  A
    round expands the frontier's adjacency rows, frontier in discovery
    order and rows in adjacency order, and the *first* entry reaching
    an unseen node of the same cluster becomes its parent — the parent
    a FIFO queue picks, so the offsets are those of a per-cluster
    queue walk at any ``tolerance``.  An offset never changes once
    set, so the tolerance test is one pass over the edges afterwards.
    """
    if not isinstance(g0, OverlapGraph):
        raise ValueError("layout requires a graph with deltas (G0)")
    members = np.asarray(members, dtype=np.int64)
    first = np.asarray(first, dtype=np.int64)
    sizes = np.diff(first)
    if (sizes <= 0).any():
        raise ValueError("empty cluster")
    n = g0.n_nodes
    if np.bincount(members, minlength=n).max(initial=0) > 1:
        raise ValueError("a node is listed twice")
    label = np.full(n, -1, dtype=np.int64)
    label[members] = np.repeat(np.arange(sizes.size), sizes)
    offset = np.zeros(n, dtype=np.int64)
    seen = np.zeros(n, dtype=bool)
    stamp = np.empty(n, dtype=np.int64)
    degrees = g0.degrees
    frontier = members[first[:-1]]
    seen[frontier] = True
    while frontier.size:
        counts = degrees[frontier]
        rows = ragged_positions(g0.indptr[frontier], counts)
        src, dst = np.repeat(frontier, counts), g0.adj[rows]
        keep = np.flatnonzero((label[dst] == label[src]) & ~seen[dst])
        dst = dst[keep]
        # First entry per target wins: written back to front, the
        # earliest entry's stamp lands last.
        stamp[dst[::-1]] = keep[::-1]
        won = stamp[dst] == keep
        keep, dst = keep[won], dst[won]
        offset[dst] = offset[src[keep]] + g0.adj_delta[rows[keep]]
        seen[dst] = True
        frontier = dst
    inside = label[g0.eu] == label[g0.ev]
    eu, ev = g0.eu[inside], g0.ev[inside]
    torn = np.abs(offset[ev] - offset[eu] - g0.deltas[inside]) > tolerance
    bad = np.concatenate([label[eu[torn]], label[members[~seen[members]]]])
    ok = np.bincount(bad[bad >= 0], minlength=sizes.size) == 0
    offsets = offset[members]
    offsets -= np.repeat(np.minimum.reduceat(offsets, first[:-1]), sizes)
    return offsets, ok


def layout_contiguity(
    offsets: np.ndarray, lengths: np.ndarray, first: np.ndarray
) -> np.ndarray:
    """Per cluster: do its read intervals [offset, offset+length) leave no gap?

    Cluster ``i`` owns entries ``first[i]:first[i+1]`` of both columns.
    One sort by (cluster, offset) and one running maximum of read ends:
    every cluster is shifted into its own stretch of one coordinate
    axis, wide enough that no reach carries over from the cluster
    before.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if offsets.size != lengths.size:
        raise ValueError("offsets/lengths length mismatch")
    sizes = np.diff(np.asarray(first, dtype=np.int64))
    if offsets.size == 0:
        return np.ones(sizes.size, dtype=bool)
    cluster = np.repeat(np.arange(sizes.size), sizes)
    low = offsets.min()
    stretch = int((offsets + lengths).max() - low) + 1
    starts = offsets - low + cluster * stretch
    order = np.argsort(starts, kind="stable")
    starts = starts[order]
    reach = np.maximum.accumulate(starts + lengths[order])
    # A cluster's first read follows nothing.
    gap = (starts[1:] > reach[:-1]) & (cluster[1:] == cluster[:-1])
    return np.bincount(cluster[1:][gap], minlength=sizes.size) == 0


def overlay_votes(
    codes: np.ndarray,
    offsets: np.ndarray,
    sizes: np.ndarray,
    width: int,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Base-major ``(4, width)`` vote table of stacked sequences.

    ``codes`` concatenates sequences of ``sizes`` bases, sequence ``i``
    laid at columns ``offsets[i] ...`` (all below ``width``); cell
    ``[base, column]`` of the result counts (or, with per-base
    ``weights``, sums in input order) the called bases there — one
    ``np.bincount``.
    """
    cell = ragged_positions(offsets, sizes) + codes * np.int64(width)
    called = codes < 4
    if weights is not None:
        weights = weights[called]
    votes = np.bincount(cell[called], weights=weights, minlength=4 * width)
    return votes.reshape(4, width)


def vote_winners(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(winning base, covered) of every column of a ``(4, width)`` vote table.

    Ties go to the lowest base (the first maximum); a column is covered
    when its winning count is positive.  Elementwise passes over the
    table, in place: ``counts[0]`` is overwritten with the winning
    counts, and no width-sized count temporary is made.
    """
    best = counts[0]
    winner = np.zeros(counts.shape[1], dtype=np.uint8)
    beaten = np.empty(counts.shape[1], dtype=np.uint8)
    for base in (1, 2, 3):
        # Every earlier winner is a lower base, so a strict win at
        # ``base`` raises the winner to it and a loss leaves it.
        np.greater(counts[base], best, out=beaten)
        beaten *= base
        np.maximum(winner, beaten, out=winner)
        np.maximum(best, counts[base], out=best)
    return winner, best > 0


def consensus_of_layouts(
    reads: ReadSet,
    members: np.ndarray,
    first: np.ndarray,
    offsets: np.ndarray,
    quality_weighted: bool = False,
) -> list[list[np.ndarray]]:
    """Majority-vote consensus of many laid-out clusters.

    Cluster ``i`` is the reads ``members[first[i]:first[i+1]]``
    (non-empty), read ``members[j]`` stacked at column ``offsets[j]``
    — the ragged form :func:`layout_clusters` lays out; each cluster's
    columns start at its smallest offset.  With ``quality_weighted``
    (and reads that carry Phred scores), each base's vote is weighted
    by its probability of being correct, ``1 - 10^(-Q/10)``, added in
    member order — low-quality 3' tails then lose ties against
    confident bases instead of splitting them.  Returns, per cluster,
    one code array per zero-coverage-separated segment (a contiguous
    layout yields exactly one).

    Clusters are taken in blocks of whole clusters of at most
    ``_MAX_BASES`` read bases (a larger cluster is a block by itself):
    one :meth:`ReadSet.gather_reads` and one :func:`overlay_votes` per
    block, each cluster voting in its own run of columns.
    """
    members = np.asarray(members, dtype=np.int64)
    first = np.asarray(first, dtype=np.int64)
    offsets = np.asarray(offsets, dtype=np.int64)
    out: list[list[np.ndarray]] = []
    n_clusters = first.size - 1
    if n_clusters == 0:
        return out
    weighted = quality_weighted and reads.has_quals
    counts = np.diff(first)
    shifted = offsets - np.repeat(np.minimum.reduceat(offsets, first[:-1]), counts)
    sizes = reads.lengths[members]
    widths = np.maximum.reduceat(shifted + sizes, first[:-1])
    total = np.cumsum(np.add.reduceat(sizes, first[:-1]))
    cuts = np.searchsorted(total, np.arange(_MAX_BASES, total[-1], _MAX_BASES))
    bounds = np.unique(np.concatenate([[0], cuts, [n_clusters]])).tolist()
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        block = slice(first[lo], first[hi])
        columns = np.zeros(hi - lo + 1, dtype=np.int64)
        np.cumsum(widths[lo:hi], out=columns[1:])
        codes, starts, quals = reads.gather_reads(members[block], quals=weighted)
        at = ragged_positions(starts, sizes[block])
        consensus, covered = vote_winners(
            overlay_votes(
                codes[at],
                np.repeat(columns[:-1], counts[lo:hi]) + shifted[block],
                sizes[block],
                int(columns[-1]),
                1.0 - np.power(10.0, -quals[at] / 10.0) if weighted else None,
            )
        )
        for left, right in zip(columns[:-1].tolist(), columns[1:].tolist()):  # noqa: PERF002 - per contig
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
