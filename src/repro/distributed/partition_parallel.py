"""Parallel recursive bisection on the simulated cluster (Fig. 4).

This driver executes the partitioning on a
:class:`~repro.mpi.SimCluster`: the pure per-task kernels of
:mod:`repro.distributed.partition_kernels` are assigned round-robin to
ranks, per-task compute is measured on the owning rank's virtual
clock, and label updates travel through allgathers — so the run's
virtual elapsed time is what a ``p``-rank MPI job would have measured.

Task RNG seeds depend only on (seed, step, group), so the produced
partition is identical for every rank count; only the timing changes.
"""

from __future__ import annotations

import numpy as np

from repro.distributed.partition_kernels import bisect_group_kernel, kway_level_kernel
from repro.graph.coarsen import MultilevelGraphSet
from repro.mpi.cluster import RunStats, SimCluster
from repro.mpi.simcomm import SimComm
from repro.mpi.timing import CommCostModel
from repro.partition.multilevel import _project_labels_up
from repro.partition.recursive import PartitionConfig

__all__ = ["parallel_partition_graph_set"]


def _rank_fn(
    comm: SimComm, gs: MultilevelGraphSet, k: int, config: PartitionConfig
) -> np.ndarray:
    finest = gs.base
    labels = np.zeros(finest.n_nodes, dtype=np.int64)
    n_steps = int(np.log2(k))
    frontier: list[np.ndarray] = [np.arange(finest.n_nodes, dtype=np.int64)]

    for step in range(n_steps):
        local_results: list[tuple[int, np.ndarray]] = []
        for gi, group in enumerate(frontier):
            if gi % comm.size != comm.rank:
                continue
            with comm.timed():
                half = bisect_group_kernel(gs, group, step, gi, config)
            local_results.append((gi, half))
        # Everyone learns every group's bisection (the step barrier).
        all_results = comm.allgather(local_results)
        with comm.timed():
            halves: dict[int, np.ndarray] = {}
            for part in all_results:
                for gi, half in part:
                    halves[gi] = half
            next_frontier: list[np.ndarray] = []
            for gi, group in enumerate(frontier):
                half = halves[gi]
                left = group[half == 0]
                right = group[half == 1]
                labels[right] = labels[right] * 2 + 1
                labels[left] = labels[left] * 2
                next_frontier.extend([left, right])
            frontier = next_frontier

    if config.run_kway and k > 1:
        per_level = _project_labels_up(gs, labels, k)
        local_refined: list[tuple[int, np.ndarray]] = []
        for level in range(gs.n_levels):
            if level % comm.size != comm.rank:
                continue
            with comm.timed():
                refined = kway_level_kernel(gs.graphs[level], per_level[level], k, config)
            local_refined.append((level, refined))
        all_refined = comm.allgather(local_refined)
        with comm.timed():
            for part in all_refined:
                for level, refined in part:
                    if level == 0:
                        labels = refined
    comm.barrier()
    return labels


def parallel_partition_graph_set(
    gs: MultilevelGraphSet,
    k: int,
    n_ranks: int,
    config: PartitionConfig | None = None,
    cost_model: CommCostModel | None = None,
) -> tuple[np.ndarray, RunStats]:
    """Partition a graph set on ``n_ranks`` simulated processors.

    Returns (labels on the finest graph, run stats whose ``elapsed`` is
    the virtual parallel runtime).
    """
    config = config or PartitionConfig()
    if k < 1 or (k & (k - 1)) != 0:
        raise ValueError("k must be a power of two")
    cluster = SimCluster(n_ranks, cost_model=cost_model)
    results, stats = cluster.run(_rank_fn, gs, k, config)
    labels = results[0]
    for other in results[1:]:
        if not np.array_equal(other, labels):
            raise RuntimeError("ranks disagreed on the partition labels")
    return labels, stats
