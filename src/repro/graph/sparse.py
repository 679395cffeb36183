"""Masked sparse-matrix representation of the alive assembly subgraph.

The finish stages (paper §V-A/B/C: transitive reduction, containment
removal, dead-end trimming, bubble popping) batch each stage into
whole-partition numpy operations over the representation built here,
the way diBELLA performs string-graph transitive reduction as
distributed sparse matrix products (PAPERS.md: *Parallel String Graph
Construction and Transitive Reduction for De Novo Genome Assembly*),
over a compact directed-pair encoding in the spirit of Dinh &
Rajasekaran's exact-match overlap graph.

Two layers keep a partition kernel's cost at its own share of the graph:

:class:`SparseStructure`
    The mask-*independent* directed pair tables of one graph: every
    undirected edge is stored in both orientations with its
    delta-as-seen-from-source, globally sorted by ``(src, dst)`` with a
    CSR ``indptr``.  The sort is the only superlinear step and runs
    **once per graph**, in ``DistributedAssemblyGraph.__init__``, so
    every stage and every partition share it.

:class:`SparseFinishView`
    The alive subgraph under the current ``node_alive``/``edge_alive``
    masks, read *in place*: nothing is compacted.  A query gathers the
    structure rows of the nodes it names (CSR slices) and filters them
    by the masks, so constructing a view is O(1) and a kernel pays for
    its partition's rows plus the hops it reads — never an O(E) pass
    per partition per stage.  The view offers alive rows and degrees of
    a node set (``rows_of``) and vectorized pair lookup.
"""

from __future__ import annotations

import numpy as np

from repro.io.readset import ragged_positions

__all__ = [
    "SparseStructure",
    "SparseFinishView",
    "masked_view",
    "ragged_positions",
    "sorted_unique",
]


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values of a 1-d array: sort, drop repeats.

    Same result as ``np.unique(values)``, which recent numpy routes
    through a hash table that is 10-30x slower than this on the int64
    id and key arrays the finish kernels deduplicate (numpy 2.4.6:
    1.2 ms vs 0.07 ms at 10^4 elements, 27 ms vs 0.8 ms at 10^5).
    """
    values = np.array(values)  # private copy, sorted in place
    values.sort()
    if values.size == 0:
        return values
    keep = np.ones(values.size, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


class SparseStructure:
    """Mask-independent directed-pair tables of one overlap graph.

    Every undirected edge appears twice — once per orientation — with
    its delta as seen from ``src``.  Rows are sorted by ``(src, dst)``
    and indexed by ``indptr`` (CSR), so a node's rows are one slice and
    pair lookups binary-search a single key array.
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
        #: rows per node, dead or alive, and their CSR offsets.
        self.degrees = np.bincount(self.src, minlength=n)
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(self.degrees, out=self.indptr[1:])


class SparseFinishView:
    """One stage's alive subgraph: the structure tables read through the masks.

    Row positions handed out by :meth:`rows_of` and :meth:`lookup`
    index the structure's ``src``/``dst``/``delta``/``eid``/``key`` tables,
    re-exported here.  A row is alive when its edge and both endpoints
    are; the alive degree of a node equals ``dag.alive_degree``.
    """

    def __init__(
        self,
        structure: SparseStructure,
        node_alive: np.ndarray,
        edge_alive: np.ndarray,
    ) -> None:
        self.structure = structure
        self.node_alive = node_alive
        self.edge_alive = edge_alive
        self.n_nodes = structure.n_nodes
        self.src = structure.src
        self.dst = structure.dst
        self.delta = structure.delta
        self.eid = structure.eid
        self.key = structure.key

    def rows_of(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(alive row positions, alive degree per node) of a node sequence.

        Rows are concatenated in the order of ``nodes`` (repeats
        allowed), each node's in ``dst`` order, so node ``i``'s rows
        start at ``cumsum(degrees)[i] - degrees[i]``.  Cost is the
        nodes' structure rows, not the graph's.
        """
        s = self.structure
        counts = s.degrees[nodes]
        rows = ragged_positions(s.indptr[nodes], counts)
        alive = (
            self.edge_alive[s.eid[rows]]
            & self.node_alive[s.dst[rows]]
            & self.node_alive[s.src[rows]]
        )
        owner = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
        return rows[alive], np.bincount(owner[alive], minlength=counts.size)

    # -- pair queries -----------------------------------------------------

    def lookup(self, us: np.ndarray, vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(row positions, found mask) of alive directed pairs (u, v)."""
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        key = self.key
        if key.size == 0:
            return np.zeros(us.shape, dtype=np.int64), np.zeros(us.shape, dtype=bool)
        want = us * self.n_nodes + vs
        pos = np.minimum(np.searchsorted(key, want), key.size - 1)
        found = (
            (key[pos] == want)
            & self.edge_alive[self.eid[pos]]
            & self.node_alive[us]
            & self.node_alive[vs]
        )
        return pos, found

    def pair_deltas(self, us: np.ndarray, vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(delta of edge u-v as seen from u, found mask); 0 where absent."""
        pos, found = self.lookup(us, vs)
        if self.delta.size == 0:
            return np.zeros(found.shape, dtype=np.int64), found
        return np.where(found, self.delta[pos], 0), found


def masked_view(dag) -> SparseFinishView:
    """The alive view of a distributed graph under its current masks (O(1), pure)."""
    return SparseFinishView(dag.sparse_structure, dag.node_alive, dag.edge_alive)
