"""Static assignment of work units to workers: the one LPT.

Subset-pair alignment tasks have predictable cost: candidate
generation and verification scale with the number of query/reference
read combinations, so a pair ``(i, j)`` is estimated at ``|Q|·|R|``
(halved for self-pairs, which only evaluate ordered combinations).
Largest-processing-time (LPT) list scheduling on those estimates gives
a provably 4/3-competitive makespan and tighter balance than blind
striping (``tests/parallel/test_schedule.py``).  The same assignment
packs subset pairs into the parts of the ``overlap`` stage and replays
Fig. 4's recorded partitioning tasks (:mod:`repro.mpi.schedule`).
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence

import numpy as np

__all__ = ["subset_pair_costs", "lpt_assignment"]


def subset_pair_costs(
    pairs: Sequence[tuple[int, int]], subset_sizes: np.ndarray
) -> np.ndarray:
    """Estimated cost of each subset-pair work unit.

    ``|Q|·|R|`` read combinations per pair; self-pairs are halved
    because only ordered (q < r) combinations are evaluated.
    """
    sizes = np.asarray(subset_sizes, dtype=np.float64)
    costs = np.empty(len(pairs), dtype=np.float64)
    for t, (i, j) in enumerate(pairs):
        cost = sizes[i] * sizes[j]
        costs[t] = cost / 2.0 if i == j else cost
    return costs


def lpt_assignment(costs: np.ndarray, n_workers: int) -> np.ndarray:
    """Worker id per task under longest-processing-time list scheduling.

    Tasks are assigned largest-first to the currently least-loaded
    worker (ties broken by lowest worker id, then lowest task index),
    which is deterministic: every rank of a simulated cluster computes
    the identical assignment locally with no communication.
    """
    costs = np.asarray(costs, dtype=np.float64)
    if n_workers < 1:
        raise ValueError("n_workers must be >= 1")
    if (costs < 0).any():
        raise ValueError("costs must be non-negative")
    owner = np.zeros(costs.size, dtype=np.int64)
    if costs.size == 0:
        return owner
    loads = [(0.0, w) for w in range(min(n_workers, int(costs.size)))]
    heapq.heapify(loads)
    order = np.argsort(-costs, kind="stable")
    for task in order.tolist():
        load, worker = heapq.heappop(loads)
        owner[task] = worker
        heapq.heappush(loads, (load + float(costs[task]), worker))
    return owner
