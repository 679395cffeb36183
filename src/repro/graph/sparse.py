"""The directed pair table every finish stage reads the alive graph through.

The finish stages (paper §V-A/B/C: transitive reduction, containment
removal, dead-end trimming, bubble popping, plus traversal and the
variant caller) batch each stage into whole-partition numpy operations
over one table, the way diBELLA keeps the string graph as one sparse
matrix that every step of its transitive reduction reads (PAPERS.md:
*Parallel String Graph Construction and Transitive Reduction for De
Novo Genome Assembly*), over a compact directed-pair encoding in the
spirit of Dinh & Rajasekaran's exact-match overlap graph.

:class:`PairTable` holds the mask-*independent* directed pairs of one
graph: every undirected edge is stored in both orientations with its
delta-as-seen-from-source, globally sorted by ``(src, dst)`` with a CSR
``indptr``.  The sort is the only superlinear step and runs **once per
graph**, in ``DistributedAssemblyGraph.__init__``; worker views share
the master's table.  The alive subgraph is this table read *in place*
through the current ``node_alive``/``edge_alive`` masks — nothing is
compacted — by ``DistributedAssemblyGraph.rows_of`` (alive rows and
degrees of a node set), ``lookup`` and ``pair_deltas`` (vectorized
pair queries), so a kernel pays for its partition's rows plus the hops
it reads, never an O(E) pass per partition per stage.
"""

from __future__ import annotations

import numpy as np

from repro.io.readset import ragged_positions

__all__ = ["PairTable", "ragged_positions", "sorted_unique"]


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


class PairTable:
    """Mask-independent directed pairs of one overlap graph.

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
