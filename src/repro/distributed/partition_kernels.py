"""Pure per-task kernels of parallel recursive bisection (Fig. 4).

Recursive bisection has natural parallelism (paper §IV-C): step ``i``
holds ``2^i`` independent bisection tasks, and the final global k-way
refinement holds one independent task per graph level.  Each task is a
pure, deterministic function of its inputs — the RNG seed depends only
on ``(seed, step, group)``, never on the executing rank — so the
driver (:mod:`repro.distributed.partition_parallel`) can assign tasks
to any rank and the produced partition is identical for every rank
count; only the timing changes.

Like every kernel module under ``repro.distributed``, this file must
not import :mod:`repro.mpi` (lint rule ARCH001): the communicator
lives exclusively in the driver.
"""

from __future__ import annotations

import numpy as np

from repro.graph.coarsen import MultilevelGraphSet
from repro.graph.overlap_graph import Level
from repro.partition.kway import kway_refine
from repro.partition.recursive import PartitionConfig, bisect_graph_set, bisect_group

__all__ = ["bisect_group_kernel", "kway_level_kernel"]


def bisect_group_kernel(
    gs: MultilevelGraphSet,
    group: np.ndarray,
    step: int,
    gi: int,
    config: PartitionConfig,
) -> np.ndarray:
    """Half-assignment (0/1 per group member) of one frontier group.

    Step 0 bisects the whole graph set; later steps bisect the induced
    subgraph of the group on the finest graph.
    """
    rng = np.random.default_rng((config.seed, step, gi))
    if group.size <= 1:
        return np.zeros(group.size, dtype=np.int64)
    if step == 0:
        return bisect_graph_set(gs, config, rng)
    return bisect_group(gs.base, group, config, rng)


def kway_level_kernel(
    graph: Level,
    labels: np.ndarray,
    k: int,
    config: PartitionConfig,
) -> np.ndarray:
    """Refined k-way labels of one graph level."""
    refined, _ = kway_refine(
        graph,
        labels,
        k=k,
        balance=config.kway_balance,
        stall_window=config.stall_window,
        max_passes=config.kway_max_passes,
    )
    return refined
