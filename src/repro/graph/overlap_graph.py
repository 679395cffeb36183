"""Assembly graphs as arrays: the weighted ``Level`` and the ``OverlapGraph``.

Every graph of the multilevel and hybrid sets is a :class:`Level`:
weighted nodes, undirected weighted edges and their CSR adjacency.  A
level above G0 is the level below it with some nodes merged, built by
the one contraction :meth:`Level.contract`.

Only G0 (reads, weighted by alignment length) and the enriched hybrid
graph (contigs, weighted by implied contig overlap) are
:class:`OverlapGraph` instances: levels whose edges also carry a
*delta*, the genomic offset of ``ev`` relative to ``eu``, which
cluster layout and contig construction read.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.align.overlap import Overlap, PackedOverlaps
from repro.graph.csr import build_csr
from repro.sequence.kmers import stable_order

__all__ = ["Level", "OverlapGraph"]


class Level:
    """Immutable undirected weighted graph in CSR form.

    Parameters
    ----------
    n_nodes:
        Number of nodes (0..n-1).
    eu, ev:
        Edge endpoints; normalised so ``eu < ev``, and parallel edges
        are merged by *summing* their weights.
    weights:
        Edge weights (alignment lengths at G0; summed cluster-crossing
        weight at coarser levels).
    node_weights:
        Per-node weight; defaults to 1 (each node one read).
    """

    def __init__(
        self,
        n_nodes: int,
        eu: np.ndarray,
        ev: np.ndarray,
        weights: np.ndarray,
        node_weights: np.ndarray | None = None,
    ) -> None:
        self._build(n_nodes, eu, ev, weights, node_weights)

    def _build(
        self,
        n_nodes: int,
        eu: np.ndarray,
        ev: np.ndarray,
        weights: np.ndarray,
        node_weights: np.ndarray | None,
        deltas: np.ndarray | None = None,
    ) -> np.ndarray | None:
        """Validate, orient and merge the edges, then build the CSR.

        Returns the merged ``deltas`` when given: per group, the delta
        of the heaviest instance (of the last one on a tie).
        """
        if n_nodes < 0:
            raise ValueError("n_nodes must be non-negative")
        eu = np.asarray(eu, dtype=np.int64)
        ev = np.asarray(ev, dtype=np.int64)
        weights = np.asarray(weights, dtype=np.float64)
        if not (eu.shape == ev.shape == weights.shape):
            raise ValueError("edge arrays must have equal length")
        if not np.isfinite(weights).all():
            raise ValueError("edge weights must be finite")

        # Normalise orientation: eu < ev, flipping delta signs.
        flip = eu > ev
        eu2 = np.where(flip, ev, eu)
        ev2 = np.where(flip, eu, ev)
        if deltas is not None:
            deltas = np.where(flip, -deltas, deltas)

        # Merge parallel edges: one packed (eu, ev) key, sorted stably.
        if eu2.size:
            order = stable_order(eu2 * n_nodes + ev2)
            eu2, ev2, weights = eu2[order], ev2[order], weights[order]
            first = np.ones(eu2.size, dtype=bool)
            first[1:] = (eu2[1:] != eu2[:-1]) | (ev2[1:] != ev2[:-1])
            starts = np.flatnonzero(first)
            group = np.cumsum(first) - 1
            if deltas is not None:
                # the last row reaching the group max.
                heaviest = weights == np.maximum.reduceat(weights, starts)[group]
                rows = np.where(heaviest, np.arange(eu2.size), -1)
                deltas = deltas[order][np.maximum.reduceat(rows, starts)]
            eu2, ev2 = eu2[starts], ev2[starts]
            # bincount adds in input order: the sums of a running +=.
            weights = np.bincount(group, weights=weights)
        self.eu, self.ev, self.weights = eu2, ev2, weights

        self.n_nodes = int(n_nodes)
        self.node_weights = (
            np.ones(n_nodes, dtype=np.int64)
            if node_weights is None
            else np.asarray(node_weights, dtype=np.int64)
        )
        if self.node_weights.size != n_nodes:
            raise ValueError("node_weights length mismatch")
        self.indptr, self.adj, self.adj_edge = build_csr(n_nodes, self.eu, self.ev)
        return deltas

    # -- queries ------------------------------------------------------------

    @property
    def n_edges(self) -> int:
        return int(self.eu.size)

    def neighbors(self, v: int) -> np.ndarray:
        """Neighbour node ids of ``v`` (zero-copy view)."""
        return self.adj[self.indptr[v] : self.indptr[v + 1]]

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    @property
    def total_edge_weight(self) -> float:
        return float(self.weights.sum())

    @property
    def total_node_weight(self) -> int:
        return int(self.node_weights.sum())

    # -- derivation ---------------------------------------------------------

    def contract(self, mapping: np.ndarray, n_nodes: int | None = None) -> "Level":
        """The level with each class of ``mapping`` merged into one node.

        Node ``v`` becomes node ``mapping[v]`` of ``n_nodes`` (default
        ``mapping.max() + 1``), or is dropped where ``mapping[v]`` is
        -1.  Node weights add up; an edge with a dropped end or both
        ends in one class goes, and parallel edges merge by weight sum.
        """
        mapping = np.asarray(mapping, dtype=np.int64)
        if mapping.shape != (self.n_nodes,):
            raise ValueError("mapping must give one entry per node")
        if n_nodes is None:
            n_nodes = int(mapping.max(initial=-1)) + 1
        kept = mapping >= 0
        node_weights = np.bincount(
            mapping[kept], weights=self.node_weights[kept], minlength=n_nodes
        )
        cu, cv = mapping[self.eu], mapping[self.ev]
        keep = (cu != cv) & (np.minimum(cu, cv) >= 0)
        return Level(n_nodes, cu[keep], cv[keep], self.weights[keep], node_weights)

    def induced_subgraph(self, nodes: np.ndarray) -> tuple["Level", np.ndarray]:
        """Subgraph on ``nodes``; returns (subgraph, old->new id map).

        Nodes outside the set map to -1.  Local ids follow ascending
        original id order.
        """
        keep = np.zeros(self.n_nodes, dtype=bool)
        keep[np.asarray(nodes, dtype=np.int64)] = True
        remap = np.where(keep, np.cumsum(keep) - 1, -1)
        return self.contract(remap, int(keep.sum())), remap


class OverlapGraph(Level):
    """A :class:`Level` whose edges carry layout deltas (G0, enriched H0).

    ``deltas[i]`` is the offset of ``ev[i]`` relative to ``eu[i]``; it
    flips sign with the orientation, and a merged edge keeps the delta
    of its heaviest instance (of the last one on a tie).  ``adj_delta``
    is the CSR's delta column: row ``r`` of node ``v`` holds the offset
    of ``adj[r]`` relative to ``v``.
    """

    def __init__(
        self,
        n_nodes: int,
        eu: np.ndarray,
        ev: np.ndarray,
        weights: np.ndarray,
        node_weights: np.ndarray | None = None,
        *,
        deltas: np.ndarray,
    ) -> None:
        deltas = np.asarray(deltas, dtype=np.int64)
        if deltas.shape != np.shape(eu):
            raise ValueError("deltas must match the edge count")
        self.deltas = self._build(n_nodes, eu, ev, weights, node_weights, deltas)
        d = self.deltas[self.adj_edge]
        self.adj_delta = np.where(self.adj == self.ev[self.adj_edge], d, -d)

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
            )
        m = len(overlaps)
        eu = np.fromiter((o.query for o in overlaps), dtype=np.int64, count=m)
        ev = np.fromiter((o.ref for o in overlaps), dtype=np.int64, count=m)
        w = np.fromiter((o.length for o in overlaps), dtype=np.float64, count=m)
        d = np.fromiter((o.q_start - o.r_start for o in overlaps), dtype=np.int64, count=m)
        return cls(n_reads, eu, ev, w, deltas=d)
