"""The hybrid graph set (paper §II-D, Fig. 1B).

A *best representative* is a node selected from the coarsest possible
graph level whose read cluster still assembles into one contiguous
contig — operationally: the cluster's induced G0 subgraph is connected,
admits a consistent offset layout (no repeat conflicts), and its read
intervals tile the region without gaps.  The layout that passes the
test is the contig's layout, so the set keeps it
(:attr:`HybridGraphSet.read_offsets`) for the consensus to read.

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
from repro.graph.csr import group_by_label
from repro.graph.overlap_graph import Level

__all__ = ["HybridGraphSet", "build_hybrid_set"]


class HybridGraphSet(MultilevelGraphSet):
    """Hybrid graphs ``[H0..Hn]``: a graph set whose levels also map to G0,
    with the layout of every H0 cluster that selection accepted."""

    def __init__(
        self,
        graphs: list[Level],
        mappings: list[np.ndarray],
        base_maps: list[np.ndarray],
        rep_level: np.ndarray,
        read_offsets: np.ndarray,
        tolerance: int = 0,
        coarsen: CoarsenConfig | None = None,
    ) -> None:
        super().__init__(graphs, mappings, coarsen)
        if len(base_maps) != len(graphs):
            raise ValueError("need one base map per level")
        if len(read_offsets) != len(base_maps[0]):
            raise ValueError("need one read offset per G0 node")
        #: base_maps[i]: V(G0) -> V(H_i)
        self.base_maps = base_maps
        #: per G0 node, the multilevel level of its chosen representative.
        self.rep_level = rep_level
        #: per G0 node, its offset in its H0 cluster's layout (each
        #: cluster's smallest is 0; a level-0 singleton's is 0) ...
        self.read_offsets = np.asarray(read_offsets, dtype=np.int64)
        #: ... made at this offset slack.
        self.tolerance = tolerance

    @property
    def hybrid(self) -> Level:
        """H0, *the* hybrid graph."""
        return self.graphs[0]

    def members_of_hybrid(self) -> tuple[np.ndarray, np.ndarray]:
        """H0 node ``h`` represents G0 nodes ``members[first[h]:first[h+1]]``,
        ascending; ``read_offsets[members]`` is the clusters' layout."""
        return group_by_label(self.base_maps[0], self.hybrid.n_nodes)


def _select_representatives(
    mls: MultilevelGraphSet,
    read_lengths: np.ndarray,
    tolerance: int,
    count: Callable[[str, int], None] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per G0 node: the level of its best representative (top-down
    descent) and its offset in that representative's layout.

    Level-synchronous: every cluster of a level whose parent failed is
    laid out and tested in one call; the reads of those that pass keep
    their offsets, those that fail stay pending for the level below,
    and level 0 takes what is left at offset 0.
    """
    g0 = mls.base
    rep_level = np.full(g0.n_nodes, -1, dtype=np.int64)
    read_offsets = np.zeros(g0.n_nodes, dtype=np.int64)
    pending = np.arange(g0.n_nodes, dtype=np.int64)
    for level in range(mls.n_levels - 1, 0, -1):
        if pending.size == 0:
            break
        labels = mls.map_to_level(level)[pending]
        order, first = group_by_label(labels, mls.graphs[level].n_nodes)
        first = np.unique(first)  # pending clusters only
        members = pending[order]
        offsets, ok = layout_clusters(g0, members, first, tolerance)
        passed = ok & layout_contiguity(offsets, read_lengths[members], first)
        if count is not None:
            count("layouts", 1)
        passed = np.repeat(passed, np.diff(first))
        accepted = members[passed]
        rep_level[accepted] = level
        read_offsets[accepted] = offsets[passed]
        pending = members[~passed]
    rep_level[pending] = 0
    if (rep_level < 0).any():
        raise RuntimeError("representative selection left nodes unassigned")
    return rep_level, read_offsets


def build_hybrid_set(
    mls: MultilevelGraphSet,
    read_lengths: np.ndarray,
    tolerance: int = 0,
    count: Callable[[str, int], None] | None = None,
) -> HybridGraphSet:
    """Select best representatives and assemble the hybrid graph set,
    carrying the layouts selection accepted; ``count(name, n)``, if
    given, receives the number of ``layouts`` made (one per level
    tested)."""
    read_lengths = np.asarray(read_lengths, dtype=np.int64)
    g0 = mls.base
    if read_lengths.size != g0.n_nodes:
        raise ValueError("read_lengths must cover V(G0)")
    rep_level, read_offsets = _select_representatives(mls, read_lengths, tolerance, count)

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
    return HybridGraphSet(
        graphs, mappings, base_maps, rep_level, read_offsets, tolerance, mls.coarsen
    )
