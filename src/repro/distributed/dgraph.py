"""The distributed assembly graph: hybrid nodes as contigs.

``enrich_hybrid`` lifts the hybrid graph H0 into assembly form: every
hybrid node's read cluster (contiguous by construction) is laid out
and collapsed to a consensus *contig*, and every hybrid edge gets a
*delta* — the genomic offset of one contig relative to the other,
derived from the heaviest crossing G0 overlap — plus an implied
contig-overlap length.

``DistributedAssemblyGraph`` wraps the enriched graph with partition
ownership and alive-masks.  Every stage reads the alive graph one way:
the directed pair table (:class:`~repro.graph.sparse.PairTable`)
through the masks.  Workers only read; the master applies the removals
they report (paper §V), so no locking is needed beyond the
gather/apply barrier the algorithms already have.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.graph.contigs import consensus_of_layouts, layout_clusters
from repro.graph.csr import split_groups
from repro.graph.hybrid import HybridGraphSet
from repro.graph.overlap_graph import OverlapGraph
from repro.graph.sparse import PairTable, ragged_positions
from repro.io.readset import ReadSet

__all__ = ["HybridAssembly", "enrich_hybrid", "DistributedAssemblyGraph"]


@dataclass
class HybridAssembly:
    """The enriched hybrid graph plus per-node contigs."""

    #: hybrid graph with contig-level deltas; weight = implied contig overlap.
    graph: OverlapGraph
    #: consensus contig per hybrid node.
    contigs: list[np.ndarray]
    #: G0 read members per hybrid node.
    clusters: list[np.ndarray]

    @cached_property
    def contig_lengths(self) -> np.ndarray:
        """Bases per contig; contigs are fixed once enriched, so computed once."""
        return np.array([c.size for c in self.contigs], dtype=np.int64)


def enrich_hybrid(
    hyb: HybridGraphSet,
    g0: OverlapGraph,
    reads: ReadSet,
    tolerance: int = 0,
    quality_weighted: bool = False,
) -> HybridAssembly:
    """Contigs + contig-level edge geometry for the hybrid graph.

    All H0 clusters are laid out in one
    :func:`~repro.graph.contigs.layout_clusters` call; its per-read
    offsets place the reads for the consensus and are the table the
    crossing overlaps are measured against.  Raises ``RuntimeError``
    if a cluster admits no layout at ``tolerance`` or its consensus is
    not one contiguous segment: selection accepted a cluster it should
    not have (or was run at another tolerance).
    """
    h = hyb.hybrid
    members, first = hyb.members_of_hybrid()
    # Every layout first (graph only), then the reads, block by block.
    offsets, ok = layout_clusters(g0, members, first, tolerance)
    if not ok.all():
        raise RuntimeError(
            "hybrid cluster admits no layout; representative selection is broken"
        )
    # read -> offset within its cluster's layout.
    read_offset = np.zeros(g0.n_nodes, dtype=np.int64)
    read_offset[members] = offsets
    clusters = split_groups(members, first)
    layouts = split_groups(offsets, first)
    segments = consensus_of_layouts(reads, clusters, layouts, quality_weighted)
    if any(len(s) != 1 for s in segments):
        raise RuntimeError("hybrid cluster consensus is not contiguous")
    contigs = [s[0] for s in segments]

    # Offset of the hv contig relative to the hu one, implied by each
    # crossing read overlap; the merge keeps the heaviest witness.
    bm = hyb.base_maps[0]
    hu, hv = bm[g0.eu], bm[g0.ev]
    crossing = hu != hv
    d = read_offset[g0.eu] + g0.deltas - read_offset[g0.ev]
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
    return HybridAssembly(graph=graph, contigs=contigs, clusters=clusters)


def _as_ids(ids) -> np.ndarray:
    """int64 id array from an array (no Python-level copy) or any iterable."""
    if not isinstance(ids, np.ndarray):
        ids = list(ids)
    return np.asarray(ids, dtype=np.int64)


class DistributedAssemblyGraph:
    """Partition-owned view of a :class:`HybridAssembly` with alive masks."""

    def __init__(self, assembly: HybridAssembly, labels: np.ndarray) -> None:
        labels = np.asarray(labels, dtype=np.int64)
        if labels.size != assembly.graph.n_nodes:
            raise ValueError("labels must cover every hybrid node")
        if labels.size and labels.min() < 0:
            raise ValueError("labels must be non-negative")
        self.assembly = assembly
        self.graph = assembly.graph
        self.labels = labels
        self.n_parts = int(labels.max()) + 1 if labels.size else 0
        self.node_alive = np.ones(self.graph.n_nodes, dtype=bool)
        self.edge_alive = np.ones(self.graph.n_edges, dtype=bool)
        #: mask-independent directed pair table, sorted once per graph;
        #: every stage reads the alive graph through it (:meth:`rows_of`,
        #: :meth:`lookup`, :meth:`pair_deltas`).
        self.pairs = PairTable(self.graph)

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
        assembly; the pair table is the master's, not sorted again."""
        view = copy.copy(self)
        view.state = (np.ones_like(self.node_alive), np.ones_like(self.edge_alive))
        return view

    # -- partition views ---------------------------------------------------

    def partition_nodes(self, part: int) -> np.ndarray:
        """Alive nodes owned by ``part``."""
        return np.flatnonzero((self.labels == part) & self.node_alive)

    # -- the alive graph: the pair table read through the masks ----------

    def rows_of(self, nodes) -> tuple[np.ndarray, np.ndarray]:
        """(alive row positions, alive degree per node) of a node sequence.

        Rows index the :attr:`pairs` table; a row is alive when its
        edge and both endpoints are.  Rows are concatenated in the
        order of ``nodes`` (repeats allowed), each node's in ``dst``
        order, so node ``i``'s rows start at ``cumsum(degrees)[i] -
        degrees[i]``.  Cost is the nodes' table rows, not the graph's.
        """
        t = self.pairs
        nodes = np.asarray(nodes, dtype=np.int64)
        counts = t.degrees[nodes]
        rows = ragged_positions(t.indptr[nodes], counts)
        alive = (
            self.edge_alive[t.eid[rows]]
            & self.node_alive[t.dst[rows]]
            & self.node_alive[t.src[rows]]
        )
        owner = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
        return rows[alive], np.bincount(owner[alive], minlength=counts.size)

    def lookup(self, us, vs) -> tuple[np.ndarray, np.ndarray]:
        """(row positions, found mask) of alive directed pairs (u, v)."""
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        t = self.pairs
        if t.key.size == 0:
            return np.zeros(us.shape, dtype=np.int64), np.zeros(us.shape, dtype=bool)
        want = us * t.n_nodes + vs
        pos = np.minimum(np.searchsorted(t.key, want), t.key.size - 1)
        found = (
            (t.key[pos] == want)
            & self.edge_alive[t.eid[pos]]
            & self.node_alive[us]
            & self.node_alive[vs]
        )
        return pos, found

    def pair_deltas(self, us, vs) -> tuple[np.ndarray, np.ndarray]:
        """(delta of edge u-v as seen from u, found mask); 0 where absent."""
        pos, found = self.lookup(us, vs)
        if self.pairs.delta.size == 0:
            return np.zeros(found.shape, dtype=np.int64), found
        return np.where(found, self.pairs.delta[pos], 0), found

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
