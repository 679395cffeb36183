"""Simulated MPI runtime.

The paper runs on an HPC cluster over MPI; this environment has no
mpi4py, so we substitute an in-process SPMD runtime with *virtual
clocks*:

- each rank is a generator holding a :class:`SimComm`, and
  :class:`SimCluster` runs every rank in lockstep on the calling
  thread, so a rank's measured compute never competes with another
  rank's for the cores;
- the communicator offers the two collectives the program calls —
  ``gather`` and ``bcast`` — with the mpi4py lowercase (pickle-object)
  signatures; a rank program yields each call and is sent its result,
  so a port to real MPI replaces only the driver with a trampoline
  that sends each blocking call's result back;
- once every rank has yielded its next collective, the cluster checks
  that all made the same call and computes each rank's result and
  clock; a collective that can never complete (ranks disagree, or one
  has returned) raises :class:`DeadlockError` at once;
- each rank's virtual clock advances by *measured* compute time
  (wrapped in ``comm.timed()``) and by the binomial-tree messages of
  each collective under an alpha-beta (latency + inverse bandwidth)
  cost model: a message arrives at ``send clock + alpha + beta *
  bytes`` and the receiver's clock becomes ``max(own clock, arrival)``.

Virtual elapsed time of a run is the maximum final clock over ranks —
the LogP-style estimate of what a real cluster would measure, with the
per-rank *work* being genuinely measured, only its temporal overlap
modelled.  See DESIGN.md for why this preserves the paper's speedup
shapes.
"""

from repro.mpi.cluster import RunStats, SimCluster
from repro.mpi.schedule import (
    lpt_makespan,
    partition_schedule_makespan,
    speedup_curve,
)
from repro.mpi.simcomm import DeadlockError, SimComm
from repro.mpi.timing import CommCostModel, payload_nbytes

__all__ = [
    "SimComm",
    "SimCluster",
    "RunStats",
    "CommCostModel",
    "payload_nbytes",
    "DeadlockError",
    "lpt_makespan",
    "partition_schedule_makespan",
    "speedup_curve",
]
