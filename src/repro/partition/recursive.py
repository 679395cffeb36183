"""Multilevel recursive bisection (paper §IV, §IV-C).

One *bisection task* partitions a (sub)graph in the classic multilevel
way: coarsen, greedy-grow + KL on the coarsest graph, then project the
bisection down the levels with a KL refinement at each level.  Parts
are then split recursively until ``k = 2^i`` parts exist.

Every task's wall-clock duration is recorded as a :class:`TaskRecord`
carrying its recursion ``step``; step ``i`` has ``2^i`` independent
tasks, which is the natural parallelism Fig. 4 measures (the simulated
MPI scheduler replays these records on ``p`` virtual processors).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.graph.coarsen import MultilevelGraphSet, build_multilevel_set
from repro.partition.greedy_growing import greedy_grow_bisection
from repro.partition.kl import kl_refine

__all__ = ["PartitionConfig", "TaskRecord", "recursive_bisection"]


@dataclass(frozen=True)
class PartitionConfig:
    """Knobs of the whole partitioning pipeline."""

    #: greedy-growing edge-weight balance bound (paper: 1.03).
    edge_balance: float = 1.03
    #: KL / k-way early-stop window (paper: 50 moves).
    stall_window: int = 50
    kl_max_passes: int = 6
    kway_max_passes: int = 3
    #: k-way balance bound (paper: 1.03).
    kway_balance: float = 1.03
    #: run the global k-way refinement stage after recursive bisection.
    run_kway: bool = True

    def __post_init__(self) -> None:
        if self.edge_balance < 1.0 or self.kway_balance < 1.0:
            raise ValueError("balance bounds must be >= 1.0")
        if self.stall_window < 1:
            raise ValueError("stall_window must be positive")


@dataclass(frozen=True)
class TaskRecord:
    """One unit of independently schedulable partitioning work."""

    kind: str  # "bisect" or "kway"
    step: int  # recursion step (bisect) or graph level (kway)
    duration: float  # measured seconds


def bisect_graph_set(
    gs: MultilevelGraphSet, config: PartitionConfig, rng: np.random.Generator
) -> np.ndarray:
    """Bisect the finest graph of a coarsened set (labels 0/1).

    The initial bisection is found on the coarsest graph and
    projected/refined down to ``gs.base``.  A level that is the level
    above it again (a hybrid set repeats its finest graph) keeps the
    labels KL converged to there: refining them again is a no-op.
    """
    graphs, mappings = gs.graphs, gs.mappings
    labels = greedy_grow_bisection(graphs[-1], rng, edge_balance=config.edge_balance)
    labels, _, converged = kl_refine(
        graphs[-1], labels, stall_window=config.stall_window, max_passes=config.kl_max_passes
    )
    for level in range(len(graphs) - 2, -1, -1):
        labels = labels[mappings[level]]  # project coarse -> fine
        if converged and graphs[level] is graphs[level + 1]:
            continue
        labels, _, converged = kl_refine(
            graphs[level], labels, stall_window=config.stall_window, max_passes=config.kl_max_passes
        )
    return labels


def recursive_bisection(
    gs: MultilevelGraphSet,
    k: int,
    config: PartitionConfig | None = None,
    tasks: list[TaskRecord] | None = None,
    seed: int = 0,
) -> np.ndarray:
    """Partition ``gs.base`` into ``k = 2^i`` parts by recursive bisection.

    The first, whole-graph bisection runs on the set ``gs`` as it is;
    recursive sub-bisections coarsen their induced subgraphs afresh
    under ``gs.coarsen``, each from ``seed``, and all bisections draw
    from one stream seeded with ``seed``.  ``tasks`` (if given) collects
    one :class:`TaskRecord` per bisection for the Fig. 4 speedup replay.
    """
    config = config or PartitionConfig()
    if k < 1 or (k & (k - 1)) != 0:
        raise ValueError("k must be a power of two")
    rng = np.random.default_rng(seed)
    graph = gs.base
    labels = np.zeros(graph.n_nodes, dtype=np.int64)
    if k == 1 or graph.n_nodes == 0:
        return labels

    n_steps = int(np.log2(k))
    # frontier: list of (node index arrays); step i bisects 2^i groups.
    frontier: list[np.ndarray] = [np.arange(graph.n_nodes, dtype=np.int64)]
    for step in range(n_steps):
        next_frontier: list[np.ndarray] = []
        for group in frontier:
            t0 = time.perf_counter()
            if group.size <= 1:
                half = np.zeros(group.size, dtype=np.int64)
            elif step == 0:
                half = bisect_graph_set(gs, config, rng)
            else:
                sub, remap = graph.induced_subgraph(group)
                fresh = build_multilevel_set(sub, gs.coarsen, seed)
                half = bisect_graph_set(fresh, config, rng)[remap[group]]
            if tasks is not None:
                tasks.append(
                    TaskRecord(kind="bisect", step=step, duration=time.perf_counter() - t0)
                )
            left = group[half == 0]
            right = group[half == 1]
            labels[right] = labels[right] * 2 + 1
            labels[left] = labels[left] * 2
            next_frontier.extend([left, right])
        frontier = next_frontier
    return labels
