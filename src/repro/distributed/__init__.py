"""Distributed graph algorithms on the partitioned hybrid graph.

Implements paper §V: each graph partition is owned by one worker,
workers scan only their own nodes and report removal candidates (or
sub-paths) to the master, which applies them — transitive edge
reduction, containment removal, dead-end/bubble error removal, and
maximal-path traversal with master-side sub-path joining.

Every stage is split into a *pure per-partition kernel* and a *master
merge* (:mod:`repro.distributed.stages`), so the same algorithm runs
unchanged on any execution backend (:mod:`repro.parallel.backend`):
in-process serial, the simulated MPI cluster with virtual clocks
(whose elapsed time is what Fig. 6 plots), or real OS processes.  See
docs/architecture.md for the layering contract.
"""

from repro.distributed.dgraph import (
    DistributedAssemblyGraph,
    HybridAssembly,
    enrich_hybrid,
)
from repro.distributed.stages import (
    StageSpec,
    get_stage,
    register_stage,
    run_stage_on_comm,
)
from repro.distributed.traversal import contigs_from_paths

__all__ = [
    "DistributedAssemblyGraph",
    "HybridAssembly",
    "enrich_hybrid",
    "StageSpec",
    "register_stage",
    "get_stage",
    "run_stage_on_comm",
    "contigs_from_paths",
]
