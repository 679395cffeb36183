"""The distributed assembly graph: hybrid nodes as contigs.

``enrich_hybrid`` lifts the hybrid graph H0 into assembly form: every
hybrid node's read cluster (contiguous by construction) is collapsed,
in the layout selection accepted it in, to a consensus *contig*, and
every hybrid edge gets a *delta* — the genomic offset of one contig
relative to the other, derived from the heaviest crossing G0 overlap —
plus an implied contig-overlap length.

``DistributedAssemblyGraph`` wraps the enriched graph with partition
ownership and alive-masks.  The finish stages (paper §V: transitive
reduction, containment removal, dead-end trimming, bubble popping and
traversal) batch each stage into
whole-partition numpy operations over the graph's one adjacency, the
way diBELLA keeps the string graph as one sparse matrix that every
step of its transitive reduction reads (PAPERS.md), and Dinh &
Rajasekaran's compact overlap graph keeps one edge encoding.  That
adjacency is the graph's own CSR (``indptr``, ``adj``, ``adj_edge``,
``adj_delta``), read *in place* through the current masks — nothing
is copied, sorted or compacted — by :meth:`~DistributedAssemblyGraph.rows_of`
(alive rows and degrees of a node set), ``lookup`` and ``pair_deltas``
(vectorized pair queries), so a kernel pays for its partition's rows
plus the hops it reads, never an O(E) pass per partition per stage.
Workers only read; the master applies the removals they report (paper
§V), so no locking is needed beyond the gather/apply barrier the
algorithms already have.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from repro.graph.contigs import consensus_of_layouts
from repro.graph.csr import split_groups
from repro.graph.hybrid import HybridGraphSet
from repro.graph.overlap_graph import OverlapGraph
from repro.io.readset import ReadSet, ragged_positions

__all__ = [
    "HybridAssembly",
    "enrich_hybrid",
    "DistributedAssemblyGraph",
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


@dataclass
class HybridAssembly:
    """The enriched hybrid graph plus per-node contigs."""

    #: hybrid graph with contig-level deltas; weight = implied contig overlap.
    graph: OverlapGraph
    #: consensus contig per hybrid node.
    contigs: list[np.ndarray]
    #: G0 read members per hybrid node.
    clusters: list[np.ndarray]
    #: bases per contig: :func:`enrich_hybrid` hands over the ones it
    #: measured, else they are counted here — once, in the process that
    #: builds the assembly, so no forked worker counts them again.
    contig_lengths: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.contig_lengths is None:
            self.contig_lengths = np.array([c.size for c in self.contigs], dtype=np.int64)


def enrich_hybrid(
    hyb: HybridGraphSet,
    g0: OverlapGraph,
    reads: ReadSet,
    tolerance: int = 0,
    quality_weighted: bool = False,
) -> HybridAssembly:
    """Contigs + contig-level edge geometry for the hybrid graph.

    The H0 clusters are laid out already: ``hyb.read_offsets`` place
    the reads for the consensus and are the table the crossing
    overlaps are measured against.  ``tolerance`` must be the one they
    were laid out at (``ValueError`` otherwise).  Raises
    ``RuntimeError`` if a cluster's consensus is not one contiguous
    segment.
    """
    if tolerance != hyb.tolerance:
        raise ValueError(
            f"the hybrid set was laid out at tolerance {hyb.tolerance}, not {tolerance}"
        )
    h = hyb.hybrid
    members, first = hyb.members_of_hybrid()
    offset = hyb.read_offsets
    segments = consensus_of_layouts(reads, members, first, offset[members], quality_weighted)
    if any(len(s) != 1 for s in segments):
        raise RuntimeError("hybrid cluster consensus is not contiguous")
    contigs = [s[0] for s in segments]

    # Offset of the hv contig relative to the hu one, implied by each
    # crossing read overlap; the merge keeps the heaviest witness.
    bm = hyb.base_maps[0]
    hu, hv = bm[g0.eu], bm[g0.ev]
    crossing = hu != hv
    d = offset[g0.eu] + g0.deltas - offset[g0.ev]
    merged = OverlapGraph(
        h.n_nodes, hu[crossing], hv[crossing], g0.weights[crossing], deltas=d[crossing]
    )
    # Implied contig overlap: intervals [0, L_eu) and [d, d+L_ev).
    lengths = np.array([c.size for c in contigs], dtype=np.int64)
    eu, ev, deltas = merged.eu, merged.ev, merged.deltas
    ov = np.minimum(lengths[eu], deltas + lengths[ev]) - np.maximum(0, deltas)
    graph = OverlapGraph(
        h.n_nodes,
        eu,
        ev,
        np.maximum(ov, 1).astype(np.float64),
        node_weights=h.node_weights,
        deltas=deltas,
    )
    return HybridAssembly(
        graph=graph,
        contigs=contigs,
        clusters=split_groups(members, first),
        contig_lengths=lengths,
    )


def _as_ids(ids) -> np.ndarray:
    """int64 id array from an array (no Python-level copy) or any iterable."""
    if not isinstance(ids, np.ndarray):
        ids = list(ids)
    return np.asarray(ids, dtype=np.int64)


class DistributedAssemblyGraph:
    """Partition-owned view of a :class:`HybridAssembly` with alive masks.

    The alive graph is the assembly graph's CSR read through the
    masks.  A row is a CSR position: node ``v``'s rows
    ``indptr[v]:indptr[v+1]`` list its higher neighbours ascending,
    then its lower ones ascending, so the row key ``v * 2n + adj``
    (higher) / ``v * 2n + n + adj`` (lower) is strictly increasing
    over the whole CSR and :meth:`lookup` binary-searches it with no
    sort.  ``n_nodes`` must stay below ``2**31`` for the key to fit
    int64.
    """

    def __init__(self, assembly: HybridAssembly, labels: np.ndarray) -> None:
        labels = np.asarray(labels, dtype=np.int64)
        if labels.size != assembly.graph.n_nodes:
            raise ValueError("labels must cover every hybrid node")
        if labels.size and labels.min() < 0:
            raise ValueError("labels must be non-negative")
        self.assembly = assembly
        self.graph = g = assembly.graph
        self.labels = labels
        self.n_parts = int(labels.max()) + 1 if labels.size else 0
        self.node_alive = np.ones(g.n_nodes, dtype=bool)
        self.edge_alive = np.ones(g.n_edges, dtype=bool)
        #: mask-independent lookup key of every CSR row, built once per
        #: graph in O(E); worker views share it.
        n = g.n_nodes
        src = np.repeat(np.arange(n, dtype=np.int64), np.diff(g.indptr))
        self.key = src * (2 * n) + np.where(g.adj > src, g.adj, g.adj + n)

    # -- stage subject (docs/architecture.md, the subject contract) --------

    def partition_costs(self) -> np.ndarray:
        """Estimated kernel cost per partition: its alive-node count."""
        labels = self.labels[self.node_alive]
        return np.bincount(labels, minlength=self.n_parts).astype(np.float64)

    @property
    def state(self) -> tuple[np.ndarray, np.ndarray]:
        """The alive masks — the only state stages mutate."""
        return self.node_alive, self.edge_alive

    @state.setter
    def state(self, masks: tuple[np.ndarray, np.ndarray]) -> None:
        self.node_alive, self.edge_alive = masks

    def worker_view(self) -> "DistributedAssemblyGraph":
        """A worker's own view (own, all-alive masks) of the shared
        assembly; the graph and its lookup key are the master's."""
        view = copy.copy(self)
        view.state = (np.ones_like(self.node_alive), np.ones_like(self.edge_alive))
        return view

    # -- partition views ---------------------------------------------------

    def partition_nodes(self, part: int) -> np.ndarray:
        """Alive nodes owned by ``part``."""
        return np.flatnonzero((self.labels == part) & self.node_alive)

    # -- the alive graph: the CSR read through the masks ---------------

    def rows_of(self, nodes) -> tuple[np.ndarray, np.ndarray]:
        """(alive row positions, alive degree per node) of a node sequence.

        Rows index the graph's CSR (``adj``, ``adj_edge``,
        ``adj_delta``); a row is alive when its edge and both endpoints
        are.  Rows are concatenated in the order of ``nodes`` (repeats
        allowed), each node's in CSR order, so node ``i``'s rows start
        at ``cumsum(degrees)[i] - degrees[i]`` and each row's source is
        ``np.repeat(nodes, degrees)``.  Cost is the nodes' rows, not
        the graph's.
        """
        g = self.graph
        nodes = np.asarray(nodes, dtype=np.int64)
        counts = g.indptr[nodes + 1] - g.indptr[nodes]
        rows = ragged_positions(g.indptr[nodes], counts)
        alive = (
            self.edge_alive[g.adj_edge[rows]]
            & self.node_alive[g.adj[rows]]
            & np.repeat(self.node_alive[nodes], counts)
        )
        owner = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
        return rows[alive], np.bincount(owner[alive], minlength=counts.size)

    def lookup(self, us, vs) -> tuple[np.ndarray, np.ndarray]:
        """(row positions, found mask) of alive directed pairs (u, v)."""
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        key = self.key
        if key.size == 0:
            return np.zeros(us.shape, dtype=np.int64), np.zeros(us.shape, dtype=bool)
        n = self.graph.n_nodes
        want = us * (2 * n) + np.where(vs > us, vs, vs + n)
        pos = np.minimum(np.searchsorted(key, want), key.size - 1)
        found = (
            (key[pos] == want)
            & self.edge_alive[self.graph.adj_edge[pos]]
            & self.node_alive[us]
            & self.node_alive[vs]
        )
        return pos, found

    def pair_deltas(self, us, vs) -> tuple[np.ndarray, np.ndarray]:
        """(delta of edge u-v as seen from u, found mask); 0 where absent."""
        pos, found = self.lookup(us, vs)
        if self.key.size == 0:
            return np.zeros(found.shape, dtype=np.int64), found
        return np.where(found, self.graph.adj_delta[pos], 0), found

    # -- master mutations -----------------------------------------------------

    def remove_edges(self, edge_ids) -> int:
        """Kill edges; returns how many were alive."""
        edge_ids = _as_ids(edge_ids)
        if edge_ids.size == 0:
            return 0
        n = int(self.edge_alive[edge_ids].sum())
        self.edge_alive[edge_ids] = False
        return n

    def remove_nodes(self, node_ids) -> int:
        """Kill nodes (and implicitly their edges); returns alive count."""
        node_ids = _as_ids(node_ids)
        if node_ids.size == 0:
            return 0
        n = int(self.node_alive[node_ids].sum())
        self.node_alive[node_ids] = False
        return n

    @property
    def n_alive_nodes(self) -> int:
        return int(self.node_alive.sum())

    @property
    def n_alive_edges(self) -> int:
        alive = self.edge_alive & self.node_alive[self.graph.eu] & self.node_alive[self.graph.ev]
        return int(alive.sum())
