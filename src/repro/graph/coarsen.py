"""Multilevel graph coarsening (paper §II-C, §III).

Repeated heavy-edge matching + node merging turns the overlap graph G0
into a multilevel graph set ``{G0, G1, ..., Gn}`` with
``|V(Gn)| <= ... <= |V(G0)|``.  Each ``G(i+1)`` is ``Gi`` contracted
along its matching (:meth:`~repro.graph.overlap_graph.Level.contract`):
coarse node weights are the summed weights of their constituents and
coarse edge weights sum the crossing fine edges, so the total edge
weight *not* hidden inside coarse nodes is preserved level to level.
Only G0 carries deltas; the coarse levels are plain weighted graphs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.csr import group_by_label
from repro.graph.matching import heavy_edge_matching
from repro.graph.overlap_graph import Level

__all__ = ["CoarsenConfig", "MultilevelGraphSet", "coarsen_once", "build_multilevel_set"]


@dataclass(frozen=True)
class CoarsenConfig:
    """Stopping rules for coarsening."""

    #: stop when a graph has at most this many nodes.
    min_nodes: int = 64
    #: stop when a round shrinks the node count by less than this factor.
    min_reduction: float = 0.05
    #: hard cap on the number of levels (n+1 graphs).
    max_levels: int = 12

    def __post_init__(self) -> None:
        if self.min_nodes < 1:
            raise ValueError("min_nodes must be positive")
        if not 0.0 < self.min_reduction < 1.0:
            raise ValueError("min_reduction must be in (0, 1)")
        if self.max_levels < 1:
            raise ValueError("max_levels must be >= 1")


def coarsen_once(graph: Level, rng: np.random.Generator) -> tuple[Level, np.ndarray]:
    """One matching + merge step; returns (coarse graph, fine->coarse map)."""
    match = heavy_edge_matching(graph, rng)
    ids = np.arange(graph.n_nodes)
    # Coarse ids number the pairs (v, match[v]) in order of their smaller
    # member: a running count of the nodes with v <= match[v].
    smaller = match >= ids
    mapping = (np.cumsum(smaller) - 1)[np.minimum(ids, match)]
    return graph.contract(mapping, int(smaller.sum())), mapping


class MultilevelGraphSet:
    """The graphs ``[G0..Gn]``, the fine->coarse maps and the ``coarsen`` rules."""

    def __init__(
        self, graphs: list[Level], mappings: list[np.ndarray], coarsen: CoarsenConfig | None = None
    ) -> None:
        if len(graphs) != len(mappings) + 1:
            raise ValueError("need one mapping per coarsening step")
        for i, m in enumerate(mappings):
            if m.size != graphs[i].n_nodes:
                raise ValueError(f"mapping {i} does not cover G{i}")
        self.graphs = graphs
        self.mappings = [np.asarray(m, dtype=np.int64) for m in mappings]
        self.coarsen = coarsen or CoarsenConfig()

    @property
    def n_levels(self) -> int:
        """Number of graphs (n + 1)."""
        return len(self.graphs)

    @property
    def base(self) -> Level:
        """The finest graph (G0 of a set coarsened from reads)."""
        return self.graphs[0]

    @property
    def coarsest(self) -> Level:
        return self.graphs[-1]

    def map_to_level(self, level: int) -> np.ndarray:
        """Composed map from V(G0) to V(G_level)."""
        if not 0 <= level < self.n_levels:
            raise ValueError(f"level {level} out of range")
        out = np.arange(self.graphs[0].n_nodes, dtype=np.int64)
        for m in self.mappings[:level]:
            out = m[out]
        return out

    def members_at_level(self, level: int) -> tuple[np.ndarray, np.ndarray]:
        """Node ``v`` of G_level represents G0 nodes
        ``members[first[v]:first[v+1]]``, ascending."""
        return group_by_label(self.map_to_level(level), self.graphs[level].n_nodes)


def build_multilevel_set(
    g0: Level, config: CoarsenConfig | None = None, seed: int = 0
) -> MultilevelGraphSet:
    """Coarsen ``g0`` from ``seed`` until the stopping rules fire."""
    config = config or CoarsenConfig()
    rng = np.random.default_rng(seed)
    graphs = [g0]
    mappings: list[np.ndarray] = []
    while len(graphs) < config.max_levels:
        current = graphs[-1]
        if current.n_nodes <= config.min_nodes:
            break
        coarse, mapping = coarsen_once(current, rng)
        reduction = 1.0 - coarse.n_nodes / current.n_nodes
        if reduction < config.min_reduction:
            break
        graphs.append(coarse)
        mappings.append(mapping)
    return MultilevelGraphSet(graphs, mappings, config)
