"""Task-schedule replay: what would p processors have taken?

The partition driver records every independently schedulable task
(bisections per recursion step, k-way refinements per level) with its
*measured* serial duration.  Fig. 4's speedup curve is produced by
replaying those records under LPT list scheduling on ``p`` virtual
processors, honouring the paper's dependency structure: recursion step
``i`` must finish before step ``i+1`` starts (its tasks' inputs are the
previous step's outputs), and the per-level k-way refinements follow
the final step but are mutually independent.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.parallel.schedule import lpt_assignment
from repro.partition.recursive import TaskRecord

__all__ = ["lpt_makespan", "partition_schedule_makespan", "speedup_curve"]


def lpt_makespan(durations: Sequence[float], n_processors: int) -> float:
    """Longest-processing-time list-schedule makespan on p processors.

    The largest per-processor load of :func:`~repro.parallel.schedule.\
lpt_assignment` (which validates both arguments).
    """
    durations = np.asarray(durations, dtype=np.float64)
    owner = lpt_assignment(durations, n_processors)
    if durations.size == 0:
        return 0.0
    return float(np.bincount(owner, weights=durations).max())


def partition_schedule_makespan(tasks: Iterable[TaskRecord], n_processors: int) -> float:
    """Virtual runtime of the recorded partitioning on p processors.

    Bisection steps are barriers (step i feeds step i+1); k-way level
    refinements run as one final independent batch.
    """
    bisect_steps: dict[int, list[float]] = {}
    kway: list[float] = []
    for t in tasks:
        if t.kind == "bisect":
            bisect_steps.setdefault(t.step, []).append(t.duration)
        elif t.kind == "kway":
            kway.append(t.duration)
        else:
            raise ValueError(f"unknown task kind {t.kind!r}")
    total = 0.0
    for step in sorted(bisect_steps):
        total += lpt_makespan(bisect_steps[step], n_processors)
    total += lpt_makespan(kway, n_processors)
    return total


def speedup_curve(
    tasks: Iterable[TaskRecord], processors: Sequence[int]
) -> list[tuple[int, float]]:
    """(p, speedup) pairs with speedup = T(1) / T(p)."""
    tasks = list(tasks)
    t1 = partition_schedule_makespan(tasks, 1)
    out: list[tuple[int, float]] = []
    for p in processors:
        tp = partition_schedule_makespan(tasks, p)
        out.append((p, t1 / tp if tp > 0 else 1.0))
    return out
