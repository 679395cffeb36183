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
which Focus partitions, trims, and traverses.  ``H0`` is G0 contracted
along the base map and each ``H(i+1)`` is ``Hi`` contracted
(:meth:`~repro.graph.overlap_graph.Level.contract`), so like the coarse
multilevel graphs the hybrid levels carry no deltas.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.graph.coarsen import CoarsenConfig, MultilevelGraphSet
from repro.graph.contigs import layout_clusters, layout_contiguity
from repro.graph.csr import group_by_label, split_groups
from repro.graph.overlap_graph import Level, OverlapGraph

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


class HybridGraphSet(MultilevelGraphSet):
    """Hybrid graphs ``[H0..Hn]``: a graph set whose levels also map to G0."""

    def __init__(
        self,
        graphs: list[Level],
        mappings: list[np.ndarray],
        base_maps: list[np.ndarray],
        rep_level: np.ndarray,
        coarsen: CoarsenConfig | None = None,
    ) -> None:
        super().__init__(graphs, mappings, coarsen)
        if len(base_maps) != len(graphs):
            raise ValueError("need one base map per level")
        #: base_maps[i]: V(G0) -> V(H_i)
        self.base_maps = base_maps
        #: per G0 node, the multilevel level of its chosen representative.
        self.rep_level = rep_level

    @property
    def hybrid(self) -> Level:
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
    mls: MultilevelGraphSet,
    read_lengths: np.ndarray,
    tolerance: int,
    count: Callable[[str, int], None] | None = None,
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
        if count is not None:
            count("layouts", 1)
        passed = np.repeat(passed, np.diff(first))
        rep_level[members[passed]] = level
        pending = members[~passed]
    rep_level[pending] = 0
    if (rep_level < 0).any():
        raise RuntimeError("representative selection left nodes unassigned")
    return rep_level


def build_hybrid_set(
    mls: MultilevelGraphSet,
    read_lengths: np.ndarray,
    tolerance: int = 0,
    count: Callable[[str, int], None] | None = None,
) -> HybridGraphSet:
    """Select best representatives and assemble the hybrid graph set;
    ``count(name, n)``, if given, receives the number of ``layouts``
    made (one per level tested)."""
    read_lengths = np.asarray(read_lengths, dtype=np.int64)
    g0 = mls.base
    if read_lengths.size != g0.n_nodes:
        raise ValueError("read_lengths must cover V(G0)")
    rep_level = _select_representatives(mls, read_lengths, tolerance, count)

    level_maps = np.stack([mls.map_to_level(lvl) for lvl in range(mls.n_levels)])
    reads = np.arange(g0.n_nodes)
    # Encode the hybrid identity of each G0 node at each level i:
    # (L, ancestor-at-L) for represented nodes with L >= i, else (i, ancestor-at-i).
    max_nodes = max(g.n_nodes for g in mls.graphs) + 1
    base_maps: list[np.ndarray] = []
    for i in range(mls.n_levels):
        lvl = np.maximum(rep_level, i)
        _, base_map = np.unique(lvl * max_nodes + level_maps[lvl, reads], return_inverse=True)
        base_maps.append(base_map.astype(np.int64))

    # Each hybrid level is the one below it contracted: H0 from G0.  A
    # level that merges nothing is the same graph, not a copy of it.
    graphs = [g0.contract(base_maps[0])]
    mappings: list[np.ndarray] = []
    for i in range(mls.n_levels - 1):
        m = np.zeros(graphs[i].n_nodes, dtype=np.int64)
        m[base_maps[i]] = base_maps[i + 1]
        mappings.append(m)
        same = bool((m == np.arange(m.size)).all())
        graphs.append(graphs[i] if same else graphs[i].contract(m))
    return HybridGraphSet(graphs, mappings, base_maps, rep_level, mls.coarsen)
