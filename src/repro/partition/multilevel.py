"""Partitioning whole graph sets: multilevel (naive) vs hybrid (ours).

``partition_via_multilevel`` is the paper's baseline: the partition is
carried by full un-coarsening all the way to the overlap graph G0, with
refinement at every level.

``partition_via_hybrid`` is the biological-knowledge variant: the same
machinery runs with the *hybrid graph* H0 as its finest level — far
smaller than G0 because contiguous read clusters stay collapsed — and
the resulting partition is mapped onto G0 through cluster membership.

Both return a :class:`PartitionResult` carrying G0 labels, measured
wall time, and the per-task timing records used by the Fig. 4 replay.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.graph.coarsen import MultilevelGraphSet
from repro.graph.hybrid import HybridGraphSet
from repro.partition.kway import kway_refine
from repro.partition.metrics import edge_cut
from repro.partition.recursive import PartitionConfig, TaskRecord, recursive_bisection

__all__ = [
    "PartitionResult",
    "partition_graph_set",
    "partition_via_multilevel",
    "partition_via_hybrid",
]


@dataclass
class PartitionResult:
    """Outcome of partitioning a graph set into k parts."""

    k: int
    #: labels on the finest graph of the partitioned set (G0 or H0).
    labels_finest: np.ndarray
    #: labels projected onto the overlap graph G0.
    labels_g0: np.ndarray
    #: serial wall-clock seconds for the whole partitioning.
    wall_time: float
    #: per-task timings for the parallel-schedule replay (Fig. 4).
    tasks: list[TaskRecord]
    #: edge cut measured on the finest partitioned graph.
    cut_finest: float
    #: edge cut of the projected labels on the overlap graph.
    cut_g0: float


def _project_labels_up(
    gs: MultilevelGraphSet, labels_finest: np.ndarray, k: int
) -> list[np.ndarray]:
    """Labels per level: weighted-majority vote of each coarse node's children."""
    per_level = [np.asarray(labels_finest, dtype=np.int64)]
    for level in range(gs.n_levels - 1):
        votes = np.zeros((gs.graphs[level + 1].n_nodes, k), dtype=np.int64)
        np.add.at(votes, (gs.mappings[level], per_level[-1]), gs.graphs[level].node_weights)
        per_level.append(votes.argmax(axis=1).astype(np.int64))
    return per_level


def partition_graph_set(
    gs: MultilevelGraphSet, k: int, config: PartitionConfig | None = None, seed: int = 0
) -> tuple[np.ndarray, list[TaskRecord], float]:
    """Recursive bisection + per-level k-way refinement on one graph set.

    The first bisection reuses ``gs``; the finest graph is ``gs.base``.
    Returns (labels on the finest graph, task records, wall seconds).
    """
    config = config or PartitionConfig()
    tasks: list[TaskRecord] = []
    t0 = time.perf_counter()
    labels = recursive_bisection(gs, k, config=config, tasks=tasks, seed=seed)
    if config.run_kway and k > 1:
        per_level = _project_labels_up(gs, labels, k)
        refined_finest = labels
        for level, (g, lab) in enumerate(zip(gs.graphs, per_level)):
            t1 = time.perf_counter()
            refined, _gain = kway_refine(
                g,
                lab,
                k=k,
                balance=config.kway_balance,
                stall_window=config.stall_window,
                max_passes=config.kway_max_passes,
            )
            tasks.append(TaskRecord(kind="kway", step=level, duration=time.perf_counter() - t1))
            if level == 0:
                refined_finest = refined
        labels = refined_finest
    wall = time.perf_counter() - t0
    return labels, tasks, wall


def partition_via_multilevel(
    mls: MultilevelGraphSet, k: int, config: PartitionConfig | None = None, seed: int = 0
) -> PartitionResult:
    """Naive baseline: partition with full un-coarsening to G0."""
    labels, tasks, wall = partition_graph_set(mls, k, config, seed)
    cut = edge_cut(mls.base, labels)
    return PartitionResult(
        k=k,
        labels_finest=labels,
        labels_g0=labels,
        wall_time=wall,
        tasks=tasks,
        cut_finest=cut,
        cut_g0=cut,
    )


def partition_via_hybrid(
    mls: MultilevelGraphSet,
    hyb: HybridGraphSet,
    k: int,
    config: PartitionConfig | None = None,
    seed: int = 0,
) -> PartitionResult:
    """Knowledge-enriched variant: partition the hybrid set, map to G0."""
    t0 = time.perf_counter()
    labels_h0, tasks, _ = partition_graph_set(hyb, k, config, seed)
    labels_g0 = labels_h0[hyb.base_maps[0]]
    wall = time.perf_counter() - t0
    return PartitionResult(
        k=k,
        labels_finest=labels_h0,
        labels_g0=labels_g0,
        wall_time=wall,
        tasks=tasks,
        cut_finest=edge_cut(hyb.hybrid, labels_h0),
        cut_g0=edge_cut(mls.base, labels_g0),
    )
