"""Sim adapter: runs kernel/merge stages on the simulated MPI cluster.

This is the thin bridge between the backend abstraction
(:mod:`repro.parallel.backend`) and the virtual-time runtime
(:mod:`repro.mpi`): each stage is executed as an SPMD rank program —
kernel under the rank's virtual clock, gather to root, merge on the
root's clock, broadcast — exactly the communication pattern the
paper's Fig. 6 times.  The returned ``elapsed`` is the cluster's
virtual wall-clock (slowest rank), not real time.

Failures are loud: a rank that raises, or a collective that can never
complete, makes :meth:`SimCluster.run` raise a ``RuntimeError`` naming
the rank, and :meth:`SimBackend.run_stage` lets it propagate.  There is
no retry — kernels are deterministic, so a second attempt would fail
the same way — and no fault plan (one fires only in process workers).
"""

from __future__ import annotations

from repro.distributed.stages import StageSpec, run_stage_on_comm
from repro.mpi.cluster import SimCluster
from repro.mpi.timing import CommCostModel
from repro.parallel.backend import ExecutionBackend, StageOutcome

__all__ = ["SimBackend"]


class SimBackend(ExecutionBackend):
    """Virtual-cluster execution: one simulated rank per part."""

    name = "sim"
    time_kind = "virtual"

    def __init__(self, subject, cost_model: CommCostModel | None = None) -> None:
        super().__init__(subject)
        self.cluster = SimCluster(max(subject.n_parts, 1), cost_model=cost_model)

    def run_stage(self, stage: StageSpec | str, **params) -> StageOutcome:
        spec = self._resolve(stage)
        results, stats = self.cluster.run(
            run_stage_on_comm, spec, self.subject, **params
        )
        return StageOutcome(spec.name, results[0], stats.elapsed, self.time_kind)
