"""The overlap graph: reads as nodes, verified overlaps as edges.

Edges are undirected and carry the paper's two measurements —
alignment length (the edge *weight* used by coarsening and
partitioning) and alignment identity.  Base-level (G0) edges
additionally carry a *delta*: the implied genomic offset of ``ev``
relative to ``eu``, which cluster layout and contig construction use.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.align.overlap import Overlap, PackedOverlaps
from repro.graph.csr import build_csr
from repro.sequence.kmers import stable_order

__all__ = ["OverlapGraph"]


class OverlapGraph:
    """Immutable undirected weighted graph in CSR form.

    Parameters
    ----------
    n_nodes:
        Number of nodes (0..n-1).
    eu, ev:
        Edge endpoints; normalised so ``eu < ev`` and deduplicated
        (parallel edges are merged by *summing* weights, keeping the
        max identity and the delta of the heaviest instance).
    weights:
        Edge weights (alignment lengths at G0; summed cluster-crossing
        weight at coarser levels).
    node_weights:
        Per-node weight; defaults to 1 (each node one read).
    deltas:
        Optional per-edge offset of ``ev`` relative to ``eu``.
    identities:
        Optional per-edge alignment identity.
    """

    def __init__(
        self,
        n_nodes: int,
        eu: np.ndarray,
        ev: np.ndarray,
        weights: np.ndarray,
        node_weights: np.ndarray | None = None,
        deltas: np.ndarray | None = None,
        identities: np.ndarray | None = None,
    ) -> None:
        if n_nodes < 0:
            raise ValueError("n_nodes must be non-negative")
        eu = np.asarray(eu, dtype=np.int64)
        ev = np.asarray(ev, dtype=np.int64)
        weights = np.asarray(weights, dtype=np.float64)
        if not (eu.shape == ev.shape == weights.shape):
            raise ValueError("edge arrays must have equal length")
        if not np.isfinite(weights).all():
            raise ValueError("edge weights must be finite")
        self.has_deltas = deltas is not None
        deltas = (
            np.zeros(eu.size, dtype=np.int64)
            if deltas is None
            else np.asarray(deltas, dtype=np.int64)
        )
        identities = (
            np.ones(eu.size, dtype=np.float64)
            if identities is None
            else np.asarray(identities, dtype=np.float64)
        )
        if deltas.shape != eu.shape or identities.shape != eu.shape:
            raise ValueError("deltas/identities must match the edge count")

        # Normalise orientation: eu < ev, flipping delta signs.
        flip = eu > ev
        eu2 = np.where(flip, ev, eu)
        ev2 = np.where(flip, eu, ev)
        deltas = np.where(flip, -deltas, deltas)

        # Merge parallel edges: one packed (eu, ev) key, sorted stably.
        if eu2.size:
            order = stable_order(eu2 * n_nodes + ev2)
            eu2, ev2 = eu2[order], ev2[order]
            weights, deltas, identities = weights[order], deltas[order], identities[order]
            first = np.ones(eu2.size, dtype=bool)
            first[1:] = (eu2[1:] != eu2[:-1]) | (ev2[1:] != ev2[:-1])
            starts = np.flatnonzero(first)
            group = np.cumsum(first) - 1
            if self.has_deltas:
                # delta of the heaviest instance in each group (of the
                # last one on a tie): the last row reaching the group max.
                heaviest = weights == np.maximum.reduceat(weights, starts)[group]
                rows = np.where(heaviest, np.arange(eu2.size), -1)
                deltas = deltas[np.maximum.reduceat(rows, starts)]
            else:
                deltas = deltas[starts]
            eu2, ev2 = eu2[starts], ev2[starts]
            # bincount adds in input order: the sums of a running +=.
            weights = np.bincount(group, weights=weights)
            identities = np.maximum.reduceat(identities, starts)
        self.eu, self.ev = eu2, ev2
        self.weights, self.deltas, self.identities = weights, deltas, identities

        self.n_nodes = int(n_nodes)
        self.node_weights = (
            np.ones(n_nodes, dtype=np.int64)
            if node_weights is None
            else np.asarray(node_weights, dtype=np.int64)
        )
        if self.node_weights.size != n_nodes:
            raise ValueError("node_weights length mismatch")
        self.indptr, self.adj, self.adj_edge = build_csr(n_nodes, self.eu, self.ev)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_overlaps(
        cls, overlaps: Sequence[Overlap] | PackedOverlaps, n_reads: int
    ) -> "OverlapGraph":
        """Build G0 from verified overlaps (weight = alignment length).

        A :class:`PackedOverlaps` batch supplies the edge columns as
        they are; a sequence of :class:`Overlap` is read field by field.
        """
        if isinstance(overlaps, PackedOverlaps):
            return cls(
                n_reads,
                overlaps.query,
                overlaps.ref,
                overlaps.length,
                deltas=overlaps.q_start - overlaps.r_start,
                identities=overlaps.identity,
            )
        m = len(overlaps)
        eu = np.fromiter((o.query for o in overlaps), dtype=np.int64, count=m)
        ev = np.fromiter((o.ref for o in overlaps), dtype=np.int64, count=m)
        w = np.fromiter((o.length for o in overlaps), dtype=np.float64, count=m)
        d = np.fromiter((o.q_start - o.r_start for o in overlaps), dtype=np.int64, count=m)
        ident = np.fromiter((o.identity for o in overlaps), dtype=np.float64, count=m)
        return cls(n_reads, eu, ev, w, deltas=d, identities=ident)

    # -- queries ------------------------------------------------------------

    @property
    def n_edges(self) -> int:
        return int(self.eu.size)

    def neighbors(self, v: int) -> np.ndarray:
        """Neighbour node ids of ``v`` (zero-copy view)."""
        return self.adj[self.indptr[v] : self.indptr[v + 1]]

    def incident_edges(self, v: int) -> np.ndarray:
        """Edge ids incident to ``v`` (zero-copy view)."""
        return self.adj_edge[self.indptr[v] : self.indptr[v + 1]]

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    @property
    def total_edge_weight(self) -> float:
        return float(self.weights.sum())

    @property
    def total_node_weight(self) -> int:
        return int(self.node_weights.sum())

    def edge_delta(self, edge_id: int, source: int) -> int:
        """Offset of the *other* endpoint relative to ``source``."""
        if not self.has_deltas:
            raise ValueError("graph carries no layout deltas")
        if source == self.eu[edge_id]:
            return int(self.deltas[edge_id])
        if source == self.ev[edge_id]:
            return -int(self.deltas[edge_id])
        raise ValueError(f"node {source} is not an endpoint of edge {edge_id}")

    def other_endpoint(self, edge_id: int, v: int) -> int:
        u1, u2 = int(self.eu[edge_id]), int(self.ev[edge_id])
        if v == u1:
            return u2
        if v == u2:
            return u1
        raise ValueError(f"node {v} is not an endpoint of edge {edge_id}")

    # -- derivation ---------------------------------------------------------

    def drop_edges(self, edge_mask: np.ndarray) -> "OverlapGraph":
        """A new graph without the edges where ``edge_mask`` is True."""
        keep = ~np.asarray(edge_mask, dtype=bool)
        if keep.size != self.n_edges:
            raise ValueError("edge mask length mismatch")
        return OverlapGraph(
            self.n_nodes,
            self.eu[keep],
            self.ev[keep],
            self.weights[keep],
            node_weights=self.node_weights,
            deltas=self.deltas[keep] if self.has_deltas else None,
            identities=self.identities[keep],
        )

    def drop_nodes(self, node_mask: np.ndarray) -> tuple["OverlapGraph", np.ndarray]:
        """Remove masked nodes; returns (new graph, old->new id map).

        Removed nodes map to -1.
        """
        drop = np.asarray(node_mask, dtype=bool)
        if drop.size != self.n_nodes:
            raise ValueError("node mask length mismatch")
        keep = ~drop
        remap = np.full(self.n_nodes, -1, dtype=np.int64)
        remap[keep] = np.arange(int(keep.sum()))
        ekeep = keep[self.eu] & keep[self.ev]
        g = OverlapGraph(
            int(keep.sum()),
            remap[self.eu[ekeep]],
            remap[self.ev[ekeep]],
            self.weights[ekeep],
            node_weights=self.node_weights[keep],
            deltas=self.deltas[ekeep] if self.has_deltas else None,
            identities=self.identities[ekeep],
        )
        return g, remap

    def induced_subgraph(self, nodes: np.ndarray) -> tuple["OverlapGraph", np.ndarray]:
        """Subgraph on ``nodes``; returns (subgraph, old->new id map).

        Nodes outside the set map to -1.  Local ids follow ascending
        original id order.
        """
        keep = np.zeros(self.n_nodes, dtype=bool)
        keep[np.asarray(nodes, dtype=np.int64)] = True
        return self.drop_nodes(~keep)

    def to_networkx(self):
        """networkx view for tests and diagnostics."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self.n_nodes))
        for i in range(self.n_edges):
            g.add_edge(
                int(self.eu[i]),
                int(self.ev[i]),
                weight=float(self.weights[i]),
                delta=int(self.deltas[i]),
                identity=float(self.identities[i]),
            )
        return g
