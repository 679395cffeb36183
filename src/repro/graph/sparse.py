"""Masked sparse-matrix representation of the alive assembly subgraph.

The finish stages (paper §V-A/B/C: transitive reduction, containment
removal, dead-end trimming, bubble popping) batch each stage into
whole-partition numpy operations over the representation built here,
the way diBELLA performs string-graph transitive reduction as
distributed sparse matrix products (PAPERS.md: *Parallel String Graph
Construction and Transitive Reduction for De Novo Genome Assembly*),
over a compact directed-pair encoding in the spirit of Dinh &
Rajasekaran's exact-match overlap graph.

Two layers keep the per-stage cost incremental:

:class:`SparseStructure`
    The mask-*independent* directed pair tables of one graph: every
    undirected edge is stored in both orientations with its
    delta-as-seen-from-source, globally sorted by ``(src, dst)``.  The
    sort is the only superlinear step and runs **once per graph**, in
    ``DistributedAssemblyGraph.__init__``, so sequential stages share
    it.

:class:`SparseFinishView`
    The alive subgraph under the current ``node_alive``/``edge_alive``
    masks: an O(E) boolean compaction of the structure tables — an
    incremental mask update between stages, never a rebuild.  The view
    offers CSR adjacency (``indptr``/``dst``), alive degree vectors
    (``indptr`` diffs), vectorized pair lookup and the right-directed
    (positive-delta) sub-adjacency.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "SparseStructure",
    "SparseFinishView",
    "masked_view",
    "ragged_positions",
    "boolean_product_keys",
]


def ragged_positions(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated ``[starts[i], starts[i]+counts[i])`` ranges.

    The standard vectorized replacement for ``for s, c in zip(...):
    out.extend(range(s, s+c))`` — one flat int64 index array.
    """
    starts = np.asarray(starts, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    block = np.cumsum(counts) - counts
    return np.repeat(starts - block, counts) + np.arange(total, dtype=np.int64)


class SparseStructure:
    """Mask-independent directed-pair tables of one overlap graph.

    Every undirected edge appears twice — once per orientation — with
    its delta as seen from ``src``.  Rows are sorted by ``(src, dst)``
    so masked views inherit CSR order and pair lookups binary-search a
    single key array.
    """

    def __init__(self, graph) -> None:
        n = int(graph.n_nodes)
        m = int(graph.n_edges)
        eids = np.arange(m, dtype=np.int64)
        src = np.concatenate([graph.eu, graph.ev]).astype(np.int64, copy=False)
        dst = np.concatenate([graph.ev, graph.eu]).astype(np.int64, copy=False)
        delta = np.concatenate([graph.deltas, -graph.deltas]).astype(
            np.int64, copy=False
        )
        eid = np.concatenate([eids, eids])
        order = np.lexsort((dst, src))
        self.n_nodes = n
        self.src = src[order]
        self.dst = dst[order]
        self.delta = delta[order]
        self.eid = eid[order]
        #: collision-free (src, dst) key; n_nodes is bounded well below
        #: 2**31 so the product fits int64.
        self.key = self.src * n + self.dst

    def masked(
        self, node_alive: np.ndarray, edge_alive: np.ndarray
    ) -> "SparseFinishView":
        """The alive subgraph under the given masks (O(E) compaction)."""
        keep = (
            edge_alive[self.eid]
            & node_alive[self.src]
            & node_alive[self.dst]
        )
        return SparseFinishView(self, keep)


class SparseFinishView:
    """One stage's alive subgraph: masked CSR arrays plus lookups.

    Directed rows stay sorted by ``(src, dst)``; ``indptr`` makes them
    CSR.  A dead node has an empty row — stage kernels only ever query
    alive nodes (partition membership already filters on the alive
    mask), where the degree here equals ``dag.alive_degree``.
    """

    def __init__(self, structure: SparseStructure, keep: np.ndarray) -> None:
        n = structure.n_nodes
        self.n_nodes = n
        self.src = structure.src[keep]
        self.dst = structure.dst[keep]
        self.delta = structure.delta[keep]
        self.eid = structure.eid[keep]
        self.key = structure.key[keep]
        counts = np.bincount(self.src, minlength=n)
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=self.indptr[1:])
        #: alive degree per node (dead rows are 0 by construction).
        self.degrees = counts
        self._right: tuple[np.ndarray, ...] | None = None

    # -- pair queries -----------------------------------------------------

    def lookup(self, us: np.ndarray, vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(row positions, found mask) of alive directed pairs (u, v)."""
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        want = us * self.n_nodes + vs
        pos = np.searchsorted(self.key, want)
        pos = np.minimum(pos, max(self.key.size - 1, 0))
        found = (self.key.size > 0) & (self.key[pos] == want)
        return pos, found

    def pair_deltas(self, us: np.ndarray, vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(delta of edge u-v as seen from u, found mask); 0 where absent."""
        pos, found = self.lookup(us, vs)
        out = np.where(found, self.delta[pos] if self.delta.size else 0, 0)
        return out, found

    def pair_edge_ids(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Alive edge id per (u, v) pair, ``-1`` where no alive edge."""
        pos, found = self.lookup(us, vs)
        if self.eid.size == 0:
            return np.full(np.asarray(us).shape, -1, dtype=np.int64)
        return np.where(found, self.eid[pos], -1)

    # -- directed sub-adjacency -------------------------------------------

    def right(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(src, dst, delta, eid) of right-extending rows (delta > 0)."""
        if self._right is None:
            pos = self.delta > 0
            self._right = (
                self.src[pos],
                self.dst[pos],
                self.delta[pos],
                self.eid[pos],
            )
        return self._right


def boolean_product_keys(
    rows: np.ndarray,
    cols: np.ndarray,
    view: SparseFinishView,
) -> np.ndarray:
    """Sorted (v, u) keys with a 2-path v -> w — u through the view.

    The first hop is the given directed edge set (``rows[i] ->
    cols[i]``); the second hop is *any* alive edge of the view (either
    direction — delta tolerance is checked later on matched triples,
    which may legally run slightly leftward).  This is the boolean
    sparse product ``A_near @ A``, computed as a ragged expansion of
    every (row -> col -> col's alive neighbour) triple through the
    view's CSR slices.
    """
    n = view.n_nodes
    if rows.size == 0:
        return np.empty(0, dtype=np.int64)
    counts = view.degrees[cols]
    mids = ragged_positions(view.indptr[cols], counts)
    ends = view.dst[mids]
    starts = np.repeat(rows, counts)
    return np.unique(starts * n + ends)


def masked_view(dag) -> SparseFinishView:
    """The alive-masked view of a distributed graph (pure)."""
    return dag.sparse_structure.masked(dag.node_alive, dag.edge_alive)
