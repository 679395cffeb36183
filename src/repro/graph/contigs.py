"""Read-cluster layout and contig consensus.

A cluster of reads representing one contiguous genomic region can be
*laid out*: each read gets an offset such that every overlap edge's
implied relative offset (its delta) is honoured.  Repeat-confused
clusters admit no consistent layout — exactly the property the hybrid
graph's best-representative test uses.  The consensus sequence of a
laid-out cluster is the per-column majority over the stacked reads,
counted by :func:`overlay_consensus` — the one count vote, which contig
emission runs on the node contigs along each path too.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.graph.overlap_graph import OverlapGraph
from repro.io.readset import ReadSet, ragged_positions

__all__ = [
    "layout_clusters",
    "layout_contiguity",
    "overlay_consensus",
    "overlay_votes",
    "consensus_of_layouts",
]

#: read bases gathered and overlaid per block of whole clusters in
#: :func:`consensus_of_layouts`: bounds its transient arrays whatever
#: the read set.  A block visits every shard its reads live in, so a
#: store pays for small blocks in shard loads.
_MAX_BASES = 1 << 20

#: byte cells of one block's rows in :func:`overlay_consensus` (a block
#: of one sequence may exceed it): bounds every overlay transient, its
#: bases and vote table included, on layouts whose sequences go right.
_MAX_CELLS = 1 << 18


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


class _Runs(dict):
    """Runs of ``N`` by length, each made once."""

    def __missing__(self, size: int) -> bytes:
        run = self[size] = b"\x04" * size
        return run


def _rows(
    pieces: Sequence, ids: np.ndarray, starts: np.ndarray, sizes: np.ndarray, depth: int, width: int
) -> np.ndarray:
    """``(depth, width)`` byte rows: sequence ``pieces[ids[i]]`` (sequences
    by start) at column ``starts[i]`` of row ``i % depth``, ``N`` elsewhere.

    No two sequences of a row overlap, so the rows are one byte string:
    the sequences (``uint8`` codes, each contiguous) row by row, each
    after the run of ``N`` up to its start.
    """
    # Ranks row by row: 0, D, 2D, ..., then 1, D + 1, ...
    rank = np.arange(-(-ids.size // depth) * depth).reshape(-1, depth).T.ravel()
    rank = rank[rank < ids.size]
    at = rank % depth * width + starts[rank]
    runs = np.diff(at, prepend=0)
    runs[1:] -= sizes[rank[:-1]]
    joined = [b""] * (2 * rank.size + 1)
    tail = depth * width - int(at[-1] + sizes[rank[-1]])
    joined[0::2] = map(_Runs().__getitem__, [*runs.tolist(), tail])
    joined[1::2] = map(pieces.__getitem__, ids[rank].tolist())
    return np.frombuffer(b"".join(joined), dtype=np.uint8).reshape(depth, width)


def _vote_winners(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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


def overlay_consensus(
    pieces: Sequence, ids: np.ndarray, offsets: np.ndarray, sizes: np.ndarray, width: int,
    count: Callable[[str, int], None],
) -> tuple[np.ndarray, np.ndarray, int]:
    """Count vote of stacked sequences: ``(seq, covered, depth)`` per column.

    Sequence ``i``, ``pieces[ids[i]]``, is ``sizes[i]`` contiguous
    ``uint8`` codes at columns ``offsets[i] ...``, all below ``width``.
    The sequences are taken by start column (sorted only where out of
    order).  Each block of them is dealt round-robin onto ``D`` byte
    rows (:func:`_rows`), ``D`` the most that start before one of them
    ends, so no two of a row overlap; ``depth`` is the largest ``D``.  A
    base's count at a column is the number of rows holding it there, in
    the narrowest unsigned dtype that holds the deepest column.
    Columns no later sequence reaches are decided (:func:`_vote_winners`),
    the rest carried on.  ``count(name, n)`` receives ``blocks`` and
    ``bases_voted``.
    """
    if (offsets[1:] < offsets[:-1]).any():
        order = np.argsort(offsets, kind="stable")
        ids, offsets, sizes = ids[order], offsets[order], sizes[order]
    n = ids.size
    stops = offsets + sizes
    # Sequences from i on that start before sequence i ends: sequence
    # i + D, and every one after it, starts right of sequence i.
    depth = np.maximum(np.searchsorted(offsets, stops) - np.arange(n), 1)
    dtype = np.min_scalar_type(int(depth.max()))
    bases = np.concatenate([[0], np.cumsum(sizes)])
    seq, covered = np.empty(width, np.uint8), np.empty(width, bool)
    lo, carry, deepest = 0, np.zeros((4, 0), dtype=dtype), 0
    while lo < n:
        done = int(offsets[lo])
        # Blocks of consecutive sequences whose rows stay within the
        # budget; every base takes a cell, so no block past ``cap`` does.
        cap = max(int(np.searchsorted(bases, bases[lo] + _MAX_CELLS, "right")) - 1, lo + 1)
        ends = np.maximum.accumulate(stops[lo:cap]) - done
        cells = np.maximum.accumulate(depth[lo:cap]) * ends
        hi = lo + max(int(np.searchsorted(cells, _MAX_CELLS, "right")), 1)
        d = int(np.minimum(depth[lo:hi], np.arange(hi - lo, 0, -1)).max())
        span = int(ends[hi - lo - 1])
        rows = _rows(pieces, ids[lo:hi], offsets[lo:hi] - done, sizes[lo:hi], d, span)
        # Left of the next sequence's start, every column is final.
        decided = (int(offsets[hi]) if hi < n else width) - done
        if carry.shape[1] < max(span, decided):
            grown = np.zeros((4, max(span, decided)), dtype=dtype)
            grown[:, : carry.shape[1]] = carry
            carry = grown
        held = np.empty(rows.shape, dtype=bool)
        for base in range(4):
            np.equal(rows, base, out=held)
            carry[base, :span] += np.add.reduce(held.view(np.uint8), axis=0, dtype=dtype)
        decision = _vote_winners(carry[:, :decided])
        seq[done : done + decided], covered[done : done + decided] = decision
        count("blocks", 1)
        count("bases_voted", int(bases[hi] - bases[lo]))
        lo, carry, deepest = hi, carry[:, decided:], max(deepest, d)
    return seq, covered, deepest


def overlay_votes(codes, offsets, sizes, width: int, weights: np.ndarray) -> np.ndarray:
    """Base-major ``(4, width)`` table of stacked sequences (``codes``
    concatenated, sequence ``i`` at columns ``offsets[i] ...``): cell
    ``[base, column]`` sums the ``weights`` of the called bases there,
    in input order — the float sums of the quality-weighted vote."""
    cell = ragged_positions(offsets, sizes) + codes * np.int64(width)
    called = codes < 4
    votes = np.bincount(cell[called], weights=weights[called], minlength=4 * width)
    return votes.reshape(4, width)


def consensus_of_layouts(
    reads: ReadSet,
    members: np.ndarray,
    first: np.ndarray,
    offsets: np.ndarray,
    quality_weighted: bool = False,
    count: Callable[[str, int], None] | None = None,
) -> tuple[list[np.ndarray], np.ndarray]:
    """Majority-vote consensus of many laid-out clusters: one code array
    per cluster, and their lengths.

    Cluster ``i`` is the reads ``members[first[i]:first[i+1]]``
    (non-empty), read ``members[j]`` stacked at column ``offsets[j]``
    — the ragged form :func:`layout_clusters` lays out.  Its consensus
    runs from its first to its last covered column; ``RuntimeError`` if
    it has none, or an uncovered column between them (every read there
    holds ``N``).

    Clusters are taken in blocks of whole clusters of at most
    ``_MAX_BASES`` read bases (a larger cluster is a block by itself),
    side by side: one :meth:`ReadSet.gather_reads` per block, whose
    reads :func:`overlay_consensus` votes on (``count`` receives its
    ``blocks``, ``bases_voted`` and ``max_depth``).  With
    ``quality_weighted`` (and reads that carry Phred scores), each
    base's vote is instead its probability of being correct,
    ``1 - 10^(-Q/10)``, added in member order by :func:`overlay_votes`,
    which counts nothing.
    """
    members, first, offsets = (np.asarray(a, dtype=np.int64) for a in (members, first, offsets))
    out: list[np.ndarray] = []
    n_clusters = first.size - 1
    if n_clusters == 0:
        return out, np.zeros(0, dtype=np.int64)
    count = count or (lambda name, n: None)
    weighted = quality_weighted and reads.has_quals
    counts = np.diff(first)
    shifted = offsets - np.repeat(np.minimum.reduceat(offsets, first[:-1]), counts)
    sizes = reads.lengths[members]
    widths = np.maximum.reduceat(shifted + sizes, first[:-1])
    total = np.cumsum(np.add.reduceat(sizes, first[:-1]))
    cuts = np.searchsorted(total, np.arange(_MAX_BASES, total[-1], _MAX_BASES))
    bounds = np.unique(np.concatenate([[0], cuts, [n_clusters]])).tolist()
    lengths, deepest = np.empty(n_clusters, dtype=np.int64), 0
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        block = slice(first[lo], first[hi])
        columns = np.zeros(hi - lo + 1, dtype=np.int64)
        np.cumsum(widths[lo:hi], out=columns[1:])
        codes, starts, quals = reads.gather_reads(members[block], quals=weighted)
        placed, width = np.repeat(columns[:-1], counts[lo:hi]) + shifted[block], int(columns[-1])
        if weighted:
            at = ragged_positions(starts, sizes[block])
            weights = 1.0 - np.power(10.0, -quals[at] / 10.0)
            votes = overlay_votes(codes[at], placed, sizes[block], width, weights)
            seq, covered = _vote_winners(votes)
        else:
            view, ends = memoryview(codes), starts + sizes[block]
            pieces = list(map(view.__getitem__, map(slice, starts.tolist(), ends.tolist())))
            seq, covered, d = overlay_consensus(
                pieces, np.arange(starts.size), placed, sizes[block], width, count
            )
            deepest = max(deepest, d)
        # ``ahead[c]``: the covered columns left of ``c``, so the rank in
        # ``at`` of the first covered column from ``c`` on.
        ahead, at = np.concatenate([[0], np.cumsum(covered)]), np.flatnonzero(covered)
        held = lengths[lo:hi] = np.diff(ahead[columns])
        if (held == 0).any():
            raise RuntimeError("a cluster consensus is not contiguous: no called base")
        left, right = at[ahead[columns[:-1]]], at[ahead[columns[1:]] - 1] + 1
        if (right - left != held).any():
            raise RuntimeError("a cluster consensus is not contiguous: an uncovered column inside")
        out += map(seq.__getitem__, map(slice, left.tolist(), right.tolist()))
    if not weighted:
        count("max_depth", deepest)
    return out, lengths
