"""Distributed maximal-path extraction and contig construction (§V-D).

A node's *unambiguous successor* is its one right neighbour (the one
alive edge of positive delta) when that neighbour's one left neighbour
is the node itself; zero-delta edges count as neither.  The relation
is a partial injection, so its components are disjoint chains and
cycles — the linear subgraph whose components ELBA emits as contigs
(Guidi et al. 2022, PAPERS.md).  Both halves of the stage find them by
list ranking: pointer doubling gives every node its chain head and its
rank in O(log L) array rounds, and a cycle is cut before its smallest
member, which then starts it.

The per-partition kernel restricts the relation to its partition's
alive rows, so it reads those rows and nothing else; its sub-paths
come out in ascending order of their smallest member and travel as a
packed ragged pair (flat node ids, per-path lengths).  The master
merge applies the same relation to the sub-path ends: p1 joins p2 when
p1's tail's unambiguous successor is p2's head.  The joined paths come
out chains first, in head order, then cycles from their smallest
sub-path.  One contig per path is then emitted by overlaying the node
contigs at their delta-accumulated offsets.

Traversal time is thus a partition's rows plus a few passes per
doubling round — cheap and nearly independent of the partition count,
as the paper observes (Fig. 6).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.distributed.dgraph import DistributedAssemblyGraph
from repro.distributed.stages import register_stage
from repro.graph.contigs import vote_winners
from repro.io.readset import ragged_positions

__all__ = [
    "subpath_kernel",
    "merge_subpaths",
    "contigs_from_paths",
]

#: byte cells of one block's rows in :func:`contigs_from_paths` (a block
#: of one node may exceed it): bounds every overlay transient, its
#: bases and vote table included, on paths whose steps go right.
_MAX_BASES = 1 << 18


def _unique_neighbours(
    dag: DistributedAssemblyGraph, nodes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(right, left): each node's only right / left alive neighbour, -1
    where it has none or several."""
    rows, degrees = dag.rows_of(nodes)
    owner = np.repeat(np.arange(nodes.size), degrees)
    delta, dst = dag.graph.adj_delta[rows], dag.graph.adj[rows]
    right, left = np.full((2, nodes.size), -1, dtype=np.int64)
    for near, side in ((right, delta > 0), (left, delta < 0)):
        near[owner[side]] = dst[side]
        near[np.bincount(owner[side], minlength=nodes.size) != 1] = -1
    return right, left


def _double(pred: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pointer doubling along ``pred`` (-1: none): (jump, rank, low).

    A chain element ends with ``jump`` at its head and ``rank`` its
    distance from it.  A cycle element never reaches a head; its
    ``low`` ends as the smallest member of its cycle.
    """
    n = pred.size
    idx = np.arange(n)
    linked = pred >= 0
    jump = np.where(linked, pred, idx)
    rank = linked.astype(np.int64)
    low = idx.copy()
    live = np.flatnonzero(pred[jump] >= 0)
    # 2**rounds > n: every chain is ranked and every cycle's window is
    # wider than the cycle.
    for _ in range(n.bit_length()):
        if live.size == 0:
            break
        to = jump[live]
        rank[live] += rank[to]
        low[live] = np.minimum(low[live], low[to])
        jump[live] = jump[to]
        live = live[pred[jump[live]] >= 0]
    return jump, rank, low


def _chains(succ: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(head, rank) of every element of the partial injection ``succ``.

    ``succ[i]`` is i's successor or -1.  A cycle is cut before its
    smallest member, which becomes its head.
    """
    n = succ.size
    pred = np.full(n, -1, dtype=np.int64)
    linked = np.flatnonzero(succ >= 0)
    pred[succ[linked]] = linked
    head, rank, low = _double(pred)
    cyclic = pred[head] >= 0
    if cyclic.any():
        pred[cyclic & (low == np.arange(n))] = -1
        head, rank, _ = _double(pred)
    return head, rank


def _gather(
    head: np.ndarray, rank: np.ndarray, key: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(order, lens): every chain head to tail, chains in ``key[head]`` order."""
    heads = np.flatnonzero(rank == 0)
    heads = heads[np.argsort(key[heads])]
    lens = np.bincount(head, minlength=head.size)[heads]
    start = np.zeros(head.size, dtype=np.int64)
    start[heads] = np.cumsum(lens) - lens
    order = np.empty(head.size, dtype=np.int64)
    order[start[head] + rank] = np.arange(head.size)
    return order, lens


def subpath_kernel(
    dag: DistributedAssemblyGraph, part: int
) -> tuple[np.ndarray, np.ndarray]:
    """Pure kernel: the packed maximal unambiguous paths inside one
    partition, in ascending order of their smallest member."""
    nodes = dag.partition_nodes(part)
    if nodes.size == 0:
        return nodes, np.empty(0, dtype=np.int64)
    right, left = _unique_neighbours(dag, nodes)
    j = np.minimum(np.searchsorted(nodes, right), nodes.size - 1)
    linked = (right >= 0) & (nodes[j] == right) & (left[j] == nodes)
    head, rank = _chains(np.where(linked, j, -1))
    # Smallest member of each chain, stored at its head.
    smallest = np.empty(nodes.size, dtype=np.int64)
    smallest[head[::-1]] = np.arange(nodes.size)[::-1]
    order, lens = _gather(head, rank, smallest)
    return nodes[order], lens


def merge_subpaths(
    dag: DistributedAssemblyGraph, proposals, **_params
) -> tuple[np.ndarray, np.ndarray]:
    """Master merge: join the sub-paths (taken in partition order, so
    the result is backend-independent) across partition boundaries."""
    empty = np.empty(0, dtype=np.int64)
    flat = np.concatenate([empty, *(f for f, _ in proposals)])
    lens = np.concatenate([empty, *(n for _, n in proposals)])
    m = lens.size
    if m == 0:
        return flat, lens
    first = np.cumsum(lens) - lens
    heads, tails = flat[first], flat[first + lens - 1]
    right, left = _unique_neighbours(dag, np.concatenate([tails, heads]))
    right, left = right[:m], left[m:]
    by_head = np.argsort(heads)
    j = by_head[np.minimum(np.searchsorted(heads, right, sorter=by_head), m - 1)]
    # A sub-path never joins itself: a partition-local cycle stays cut.
    linked = (right >= 0) & (heads[j] == right) & (left[j] == tails)
    linked &= j != np.arange(m)
    head, rank = _chains(np.where(linked, j, -1))
    # Chains in head order, then the cycles (heads that had a predecessor).
    cyclic = np.zeros(m, dtype=bool)
    cyclic[j[linked]] = True
    order, counts = _gather(head, rank, np.arange(m) + m * cyclic)
    sizes = lens[order]
    joined = flat[ragged_positions(first[order], sizes)]
    return joined, np.add.reduceat(sizes, np.cumsum(counts) - counts)


register_stage("traversal", subpath_kernel, merge_subpaths)


class _Runs(dict):
    """Runs of ``N`` by length, each made once."""

    def __missing__(self, size: int) -> bytes:
        run = self[size] = b"\x04" * size
        return run


def _rows(
    contigs: list[np.ndarray],
    nodes: np.ndarray,
    starts: np.ndarray,
    sizes: np.ndarray,
    depth: int,
    width: int,
) -> np.ndarray:
    """``(depth, width)`` byte rows: the contig of ``nodes[i]`` (nodes by
    start) at column ``starts[i]`` of row ``i % depth``, ``N`` elsewhere.

    No two nodes of a row overlap, so the rows are one byte string: the
    contigs (``uint8`` codes, each contiguous) row by row, each after the
    run of ``N`` up to its start.
    """
    # Node ranks row by row: 0, D, 2D, ..., then 1, D + 1, ...
    rank = np.arange(-(-nodes.size // depth) * depth).reshape(-1, depth).T.ravel()
    rank = rank[rank < nodes.size]
    at = rank % depth * width + starts[rank]
    runs = np.diff(at, prepend=0)
    runs[1:] -= sizes[rank[:-1]]
    pieces = [b""] * (2 * rank.size + 1)
    tail = depth * width - int(at[-1] + sizes[rank[-1]])
    pieces[0::2] = map(_Runs().__getitem__, [*runs.tolist(), tail])
    pieces[1::2] = map(contigs.__getitem__, nodes[rank].tolist())
    return np.frombuffer(b"".join(pieces), dtype=np.uint8).reshape(depth, width)


def _overlay(
    dag: DistributedAssemblyGraph,
    nodes: np.ndarray,
    lens: np.ndarray,
    count: Callable[[str, int], None],
) -> list[np.ndarray]:
    """Consensus of each packed path of two or more nodes.

    The paths lie side by side; step deltas resolve in one batched pair
    lookup.  A vote is a count, so the nodes are taken by start column
    (sorted once, and only where a step goes left).  Each block of nodes
    is dealt round-robin onto ``D`` byte rows (:func:`_rows`), ``D`` the
    most nodes that start before one of them ends, so no two nodes of a
    row overlap.  A base's count at a column is the number of rows
    holding it there, in the narrowest unsigned dtype that holds the
    deepest column.  Columns no later node reaches are decided, the
    rest carried on.  A path's contig is its covered columns.
    """
    contigs = dag.assembly.contigs
    first = np.cumsum(lens) - lens
    step = np.ones(nodes.size, dtype=bool)
    step[first] = False
    at = np.flatnonzero(step)
    deltas, found = dag.pair_deltas(nodes[at - 1], nodes[at])
    if not found.all():
        i = at[np.flatnonzero(~found)[0]]
        raise ValueError(
            f"path step {int(nodes[i - 1])}->{int(nodes[i])} has no alive edge"
        )
    offsets = np.zeros(nodes.size, dtype=np.int64)
    offsets[at] = deltas
    np.cumsum(offsets, out=offsets)
    offsets -= np.repeat(np.minimum.reduceat(offsets, first), lens)
    sizes = dag.assembly.contig_lengths[nodes]
    widths = np.maximum.reduceat(offsets + sizes, first)
    columns = np.cumsum(widths) - widths
    offsets += np.repeat(columns, lens)
    if (offsets[1:] < offsets[:-1]).any():
        order = np.argsort(offsets, kind="stable")
        nodes, offsets, sizes = nodes[order], offsets[order], sizes[order]
    n, total = nodes.size, int(widths.sum())
    stops = offsets + sizes
    # Nodes from i on that start before node i ends: node i + D, and
    # every node after it, starts right of node i.
    depth = np.maximum(np.searchsorted(offsets, stops) - np.arange(n), 1)
    dtype = np.min_scalar_type(int(depth.max()))
    bases = np.concatenate([[0], np.cumsum(sizes)])
    seq, covered = np.empty(total, np.uint8), np.empty(total, bool)
    lo, carry, deepest = 0, np.zeros((4, 0), dtype=dtype), 0
    while lo < n:
        done = int(offsets[lo])
        # Blocks of consecutive nodes whose rows stay within the budget;
        # every base takes a cell, so no block past ``cap`` does.
        cap = max(int(np.searchsorted(bases, bases[lo] + _MAX_BASES, "right")) - 1, lo + 1)
        ends = np.maximum.accumulate(stops[lo:cap]) - done
        cells = np.maximum.accumulate(depth[lo:cap]) * ends
        hi = lo + max(int(np.searchsorted(cells, _MAX_BASES, "right")), 1)
        d = int(np.minimum(depth[lo:hi], np.arange(hi - lo, 0, -1)).max())
        width = int(ends[hi - lo - 1])
        rows = _rows(contigs, nodes[lo:hi], offsets[lo:hi] - done, sizes[lo:hi], d, width)
        # Left of the next node's start, every column is final.
        decided = (int(offsets[hi]) if hi < n else total) - done
        if carry.shape[1] < max(width, decided):
            grown = np.zeros((4, max(width, decided)), dtype=dtype)
            grown[:, : carry.shape[1]] = carry
            carry = grown
        held = np.empty(rows.shape, dtype=bool)
        for base in range(4):
            np.equal(rows, base, out=held)
            carry[base, :width] += np.add.reduce(held.view(np.uint8), axis=0, dtype=dtype)
        seq[done : done + decided], covered[done : done + decided] = vote_winners(carry[:, :decided])
        count("blocks", 1)
        count("bases_voted", int(bases[hi] - bases[lo]))
        lo, carry, deepest = hi, carry[:, decided:], max(deepest, d)
    count("nodes_overlaid", n)
    count("max_depth", deepest)
    # A path covered end to end is its columns as they are.
    return [
        seq[a:b] if covered[a:b].all() else seq[a:b][covered[a:b]]
        for a, b in zip(columns.tolist(), (columns + widths).tolist())
    ]


def contigs_from_paths(
    dag: DistributedAssemblyGraph,
    paths: tuple[np.ndarray, np.ndarray],
    count: Callable[[str, int], None] | None = None,
) -> list[np.ndarray]:
    """One consensus sequence per packed path, overlaying contigs at
    their delta-accumulated offsets; a single-node path is its contig.

    ``count(name, n)``, if given, receives the work done: ``nodes_overlaid``,
    ``bases_voted``, ``blocks`` and ``max_depth`` (the most rows one
    block was dealt onto).
    """
    flat, lens = (np.asarray(a, dtype=np.int64) for a in paths)
    multi = lens > 1
    overlaid = iter(
        _overlay(dag, flat[np.repeat(multi, lens)], lens[multi], count or (lambda name, n: None))
        if multi.any()
        else []
    )
    contigs = dag.assembly.contigs
    return [
        next(overlaid) if m else contigs[v].copy()
        for m, v in zip(multi.tolist(), flat[np.cumsum(lens) - lens].tolist())
    ]
