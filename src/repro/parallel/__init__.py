"""Real (OS-process) parallel execution of assembly work units.

The simulated-MPI layer (``repro.mpi``) models a cluster as a lockstep
schedule of rank programs with virtual clocks; this package runs the same independent work units on
actual cores via :class:`concurrent.futures.ProcessPoolExecutor`.  Both
layers share the scheduling helpers in :mod:`repro.parallel.schedule`.

One executor family lives here: :mod:`repro.parallel.backend`, the
backend abstraction (``serial`` / ``sim`` / ``process``) every
kernel/merge stage runs on — alignment's subset pairs and the
distributed graph stages alike — selected per run via
``AssemblyConfig.backend`` (graph stages) and
``AssemblyConfig.overlap_workers`` (alignment).
"""

from repro.parallel.backend import (
    BACKEND_NAMES,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    StageOutcome,
    create_backend,
)
from repro.parallel.schedule import lpt_assignment, subset_pair_costs

__all__ = [
    "subset_pair_costs",
    "lpt_assignment",
    "BACKEND_NAMES",
    "StageOutcome",
    "ExecutionBackend",
    "SerialBackend",
    "ProcessBackend",
    "create_backend",
]
