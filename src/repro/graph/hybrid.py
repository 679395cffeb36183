"""The hybrid graph set (paper §II-D, Fig. 1B).

A *best representative* is a node selected from the coarsest possible
graph level whose read cluster still assembles into one contiguous
contig — operationally: the cluster's induced G0 subgraph is connected,
admits a consistent offset layout (no repeat conflicts), and its read
intervals tile the region without gaps.

The hybrid graph set ``{H0..Hn}`` mirrors the multilevel set, but
un-coarsens only *through* non-representative nodes: ``Hi`` contains
every best representative chosen at level >= i plus, for the rest of
the graph, the ordinary level-i nodes.  ``H0`` is *the hybrid graph* on
which Focus partitions, trims, and traverses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.coarsen import MultilevelGraphSet
from repro.graph.contigs import layout_clusters, layout_contiguity
from repro.graph.csr import group_by_label, split_groups
from repro.graph.overlap_graph import OverlapGraph

__all__ = ["is_contiguous_cluster", "HybridGraphSet", "build_hybrid_set"]


def _contiguous_clusters(
    g0: OverlapGraph,
    members: np.ndarray,
    first: np.ndarray,
    read_lengths: np.ndarray,
    tolerance: int,
) -> np.ndarray:
    """Per cluster of ``(members, first)``: one contiguous contig?"""
    offsets, ok = layout_clusters(g0, members, first, tolerance)
    return ok & layout_contiguity(offsets, read_lengths[members], first)


def is_contiguous_cluster(
    g0: OverlapGraph,
    nodes: np.ndarray,
    read_lengths: np.ndarray,
    tolerance: int = 0,
) -> bool:
    """Does this G0 node cluster assemble into one contiguous contig?

    True for a single read; otherwise the cluster must admit a layout
    (:func:`~repro.graph.contigs.layout_clusters`, one cluster) whose
    read intervals leave no gap.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    if nodes.size == 1:
        return True
    first = np.array([0, nodes.size])
    return bool(_contiguous_clusters(g0, nodes, first, read_lengths, tolerance)[0])


@dataclass
class HybridGraphSet:
    """Hybrid graphs ``[H0..Hn]`` plus maps between levels and to G0."""

    graphs: list[OverlapGraph]
    #: mappings[i]: V(H_i) -> V(H_{i+1})
    mappings: list[np.ndarray]
    #: base_maps[i]: V(G0) -> V(H_i)
    base_maps: list[np.ndarray]
    #: per G0 node, the multilevel level of its chosen representative.
    rep_level: np.ndarray

    def __post_init__(self) -> None:
        if len(self.graphs) != len(self.mappings) + 1:
            raise ValueError("need one mapping per level step")
        if len(self.base_maps) != len(self.graphs):
            raise ValueError("need one base map per level")

    @property
    def n_levels(self) -> int:
        return len(self.graphs)

    @property
    def hybrid(self) -> OverlapGraph:
        """H0, *the* hybrid graph."""
        return self.graphs[0]

    def members_of_hybrid(self) -> tuple[np.ndarray, np.ndarray]:
        """Ragged form of :meth:`clusters_of_hybrid`: H0 node ``h``
        represents G0 nodes ``members[first[h]:first[h+1]]``."""
        return group_by_label(self.base_maps[0], self.hybrid.n_nodes)

    def clusters_of_hybrid(self) -> list[np.ndarray]:
        """For each H0 node, the G0 nodes (reads) it represents."""
        members, first = self.members_of_hybrid()
        return split_groups(members, first)


def _select_representatives(
    mls: MultilevelGraphSet, read_lengths: np.ndarray, tolerance: int
) -> np.ndarray:
    """Per-G0-node level of its best representative (top-down descent).

    Level-synchronous: every cluster of a level whose parent failed is
    tested in one layout; the reads of those that fail stay pending for
    the level below, and level 0 takes what is left.
    """
    g0 = mls.base
    rep_level = np.full(g0.n_nodes, -1, dtype=np.int64)
    pending = np.arange(g0.n_nodes, dtype=np.int64)
    for level in range(mls.n_levels - 1, 0, -1):
        if pending.size == 0:
            break
        labels = mls.map_to_level(level)[pending]
        order, first = group_by_label(labels, mls.graphs[level].n_nodes)
        first = np.unique(first)  # pending clusters only
        members = pending[order]
        passed = _contiguous_clusters(g0, members, first, read_lengths, tolerance)
        passed = np.repeat(passed, np.diff(first))
        rep_level[members[passed]] = level
        pending = members[~passed]
    rep_level[pending] = 0
    if (rep_level < 0).any():
        raise RuntimeError("representative selection left nodes unassigned")
    return rep_level


def build_hybrid_set(
    mls: MultilevelGraphSet, read_lengths: np.ndarray, tolerance: int = 0
) -> HybridGraphSet:
    """Select best representatives and assemble the hybrid graph set."""
    read_lengths = np.asarray(read_lengths, dtype=np.int64)
    g0 = mls.base
    if read_lengths.size != g0.n_nodes:
        raise ValueError("read_lengths must cover V(G0)")
    rep_level = _select_representatives(mls, read_lengths, tolerance)

    n_levels = mls.n_levels
    level_maps = [mls.map_to_level(lvl) for lvl in range(n_levels)]
    n0 = g0.n_nodes
    # Encode the hybrid identity of each G0 node at each level i:
    # (L, ancestor-at-L) for represented nodes with L >= i, else (i, ancestor-at-i).
    max_nodes = max(g.n_nodes for g in mls.graphs) + 1
    graphs: list[OverlapGraph] = []
    base_maps: list[np.ndarray] = []
    for i in range(n_levels):
        lvl = np.maximum(rep_level, i)
        anc = np.empty(n0, dtype=np.int64)
        for l_val in np.unique(lvl).tolist():
            mask = lvl == l_val
            anc[mask] = level_maps[l_val][mask]
        keys = lvl * max_nodes + anc
        _, base_map = np.unique(keys, return_inverse=True)
        base_maps.append(base_map.astype(np.int64))
        n_h = int(base_map.max()) + 1
        node_w = np.bincount(base_map, weights=g0.node_weights, minlength=n_h)
        hu = base_map[g0.eu]
        hv = base_map[g0.ev]
        keep = hu != hv
        graphs.append(
            OverlapGraph(
                n_h,
                hu[keep],
                hv[keep],
                g0.weights[keep],
                node_weights=node_w,
                identities=g0.identities[keep],
            )
        )

    mappings: list[np.ndarray] = []
    for i in range(n_levels - 1):
        m = np.zeros(graphs[i].n_nodes, dtype=np.int64)
        m[base_maps[i]] = base_maps[i + 1]
        mappings.append(m)

    return HybridGraphSet(
        graphs=graphs, mappings=mappings, base_maps=base_maps, rep_level=rep_level
    )
