"""Distributed maximal-path extraction and contig construction (§V-D).

The per-partition kernel grows paths within its own partition:
starting from an unvisited node, the path extends through out-edges
while the chain is unambiguous (single out-edge that is also the
single in-edge of its head) and stays inside the partition; then
symmetrically through in-edges.  Sub-paths travel as a packed ragged
encoding (flat node array + per-path lengths).  The master merge joins
sub-paths whose endpoints meet across partition boundaries (right end
of p1 -> left end of p2, where that is p2's only in-edge); one contig
per path is then emitted by overlaying the node contigs at their
delta-accumulated offsets.

Kernels consult vectorised :meth:`direction_tables` (one O(E) numpy
precompute) rather than slicing adjacency per node, so traversal time
is dominated by that precompute — cheap and nearly independent of the
partition count, as the paper observes (Fig. 6).
"""

from __future__ import annotations

import numpy as np

from repro.distributed.dgraph import DistributedAssemblyGraph
from repro.distributed.stages import register_stage
from repro.graph.contigs import overlay_votes
from repro.graph.sparse import masked_view

__all__ = [
    "extract_subpaths",
    "subpath_kernel",
    "pack_paths",
    "unpack_paths",
    "join_subpaths",
    "merge_subpaths",
    "contigs_from_paths",
]

Tables = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

#: bases overlaid per ``np.bincount`` in :func:`contigs_from_paths`:
#: bounds its transient arrays (a few int64 per base) whatever the path.
_MAX_BASES = 1 << 18


def extract_subpaths(
    dag: DistributedAssemblyGraph,
    part: int,
    visited: np.ndarray,
    tables: Tables | None = None,
) -> list[list[int]]:
    """Maximal unambiguous paths within one partition.

    ``visited`` is a shared bool array marking nodes already placed in
    a path (workers touch disjoint partitions, so there are no races).
    """
    out_deg, out_next, in_deg, in_next = tables or dag.direction_tables()
    labels = dag.labels
    paths: list[list[int]] = []
    for v in dag.partition_nodes(part).tolist():
        if visited[v]:
            continue
        path = [v]
        visited[v] = True
        # Extend right.
        cur = v
        while out_deg[cur] == 1:
            nxt = int(out_next[cur])
            if visited[nxt] or labels[nxt] != part or in_deg[nxt] != 1 or in_next[nxt] != cur:
                break
            path.append(nxt)
            visited[nxt] = True
            cur = nxt
        # Extend left from the seed.
        cur = v
        while in_deg[cur] == 1:
            prv = int(in_next[cur])
            if visited[prv] or labels[prv] != part or out_deg[prv] != 1 or out_next[prv] != cur:
                break
            path.insert(0, prv)
            visited[prv] = True
            cur = prv
        paths.append(path)
    return paths


def pack_paths(paths: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Ragged encoding of a path list: (flat node ids, path lengths)."""
    lens = np.array([len(p) for p in paths], dtype=np.int64)
    if paths:
        flat = np.concatenate([np.asarray(p, dtype=np.int64) for p in paths])
    else:
        flat = np.empty(0, dtype=np.int64)
    return flat, lens


def unpack_paths(flat: np.ndarray, lens: np.ndarray) -> list[list[int]]:
    """Inverse of :func:`pack_paths`."""
    bounds = np.cumsum(np.asarray(lens, dtype=np.int64))
    flat = np.asarray(flat, dtype=np.int64)
    out: list[list[int]] = []
    lo = 0
    for hi in bounds.tolist():
        out.append(flat[lo:hi].tolist())
        lo = hi
    return out


def subpath_kernel(
    dag: DistributedAssemblyGraph, part: int
) -> tuple[np.ndarray, np.ndarray]:
    """Pure kernel: packed maximal sub-paths of one partition.

    A partition-local path never leaves its partition, so each kernel
    invocation can use a private ``visited`` array — no shared state.
    """
    visited = np.zeros(dag.graph.n_nodes, dtype=bool)
    paths = extract_subpaths(dag, part, visited, dag.direction_tables())
    return pack_paths(paths)


def join_subpaths(
    dag: DistributedAssemblyGraph,
    subpaths: list[list[int]],
    tables: Tables | None = None,
) -> list[list[int]]:
    """Master-side joining of sub-paths across partition boundaries.

    p1 joins p2 when p1's right end has a unique out-edge to p2's left
    end and that edge is p2's head's only in-edge (paper §V-D).
    """
    out_deg, out_next, in_deg, in_next = tables or dag.direction_tables()
    head_of = {p[0]: i for i, p in enumerate(subpaths)}
    paths = [list(p) for p in subpaths]

    successor: dict[int, int] = {}
    has_pred: set[int] = set()
    for i, p in enumerate(paths):
        tail = p[-1]
        if out_deg[tail] != 1:
            continue
        head = int(out_next[tail])
        j = head_of.get(head)
        if j is None or j == i:
            continue
        if in_deg[head] != 1 or in_next[head] != tail:
            continue
        successor[i] = j
        has_pred.add(j)

    joined: list[list[int]] = []
    consumed = [False] * len(paths)

    def follow(start: int) -> None:
        chain = list(paths[start])
        consumed[start] = True
        j = successor.get(start)
        while j is not None and not consumed[j]:
            chain.extend(paths[j])
            consumed[j] = True
            j = successor.get(j)
        joined.append(chain)

    for i in range(len(paths)):
        if not consumed[i] and i not in has_pred:
            follow(i)
    # Pure cycles (every member has a predecessor) are emitted as-is.
    for i in range(len(paths)):
        if not consumed[i]:
            follow(i)
    return joined


def merge_subpaths(
    dag: DistributedAssemblyGraph, proposals, **_params
) -> list[list[int]]:
    """Master merge: unpack per-partition sub-paths (in partition
    order, so the result is backend-independent) and join them."""
    flat_paths = [p for prop in proposals for p in unpack_paths(*prop)]
    return join_subpaths(dag, flat_paths)


register_stage("traversal", subpath_kernel, merge_subpaths)


def contigs_from_paths(
    dag: DistributedAssemblyGraph, paths: list[list[int]]
) -> list[np.ndarray]:
    """One consensus sequence per path, overlaying contigs at offsets.

    All step deltas resolve through one batched sparse pair lookup, and
    a path's node contigs are counted into its (column, base) table one
    ``np.bincount`` per block of whole contigs.
    """
    out: list[np.ndarray] = []
    contigs = dag.assembly.contigs
    lengths = dag.assembly.contig_lengths
    multi = [p for p in paths if len(p) > 1]
    if multi:
        heads = np.concatenate([np.asarray(p[:-1], dtype=np.int64) for p in multi])
        tails = np.concatenate([np.asarray(p[1:], dtype=np.int64) for p in multi])
        step_deltas, found = masked_view(dag).pair_deltas(heads, tails)
        if not found.all():
            i = int(np.flatnonzero(~found)[0])
            raise ValueError(
                f"path step {int(heads[i])}->{int(tails[i])} has no alive edge"
            )
    cursor = 0
    for path in paths:
        if len(path) == 1:
            out.append(contigs[path[0]].copy())
            continue
        k = len(path) - 1
        d = step_deltas[cursor : cursor + k]
        cursor += k
        offsets = np.zeros(k + 1, dtype=np.int64)
        np.cumsum(d, out=offsets[1:])
        offsets -= offsets.min()
        sizes = lengths[path]
        width = int((offsets + sizes).max())
        counts = np.zeros(width * 4, dtype=np.int32)
        # Blocks of consecutive nodes whose bases stay under the budget.
        total = np.cumsum(sizes)
        cuts = np.searchsorted(total, np.arange(_MAX_BASES, total[-1], _MAX_BASES))
        bounds = np.unique(np.concatenate([[0], cuts, [k + 1]])).tolist()
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            codes = np.concatenate([contigs[v] for v in path[lo:hi]])
            left = int(offsets[lo:hi].min())
            tally = overlay_votes(codes, offsets[lo:hi] - left, sizes[lo:hi])
            counts[left * 4 : left * 4 + tally.size] += tally
        counts = counts.reshape(width, 4)
        seq = counts.argmax(axis=1).astype(np.uint8)
        # A valid path overlays contiguously; keep only covered columns
        # defensively (uncovered columns would be argmax garbage).  Four
        # column ORs: a reduction along the length-4 axis is ~4x slower.
        a, c, g, t = counts.T
        out.append(seq[(a | c | g | t) > 0])
    return out
