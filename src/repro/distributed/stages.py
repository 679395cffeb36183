"""Stage specifications: pure per-part kernels plus master merges.

The paper has one parallel pattern and uses it twice — subset-pair
alignment (§II-B) and every graph-cleaning stage of §V: scan locally,
merge centrally.  A stage is that pattern over a *partitioned subject*
(the :class:`~repro.distributed.dgraph.DistributedAssemblyGraph`, or
alignment's :class:`~repro.align.overlapper.OverlapSubject`; the
subject contract is in docs/architecture.md):

- a **kernel** — ``kernel(subject, part, **params)`` — reads one
  part of the subject and returns *proposals* as picklable values
  (edge ids to drop, node ids to trim, packed sub-paths, overlap
  columns).  Kernels never mutate the subject and never communicate,
  so they can be executed anywhere: in-process, on a simulated MPI
  rank, or inside a forked worker process.
- a **merge** — ``merge(subject, proposals, **params)`` — runs on the
  master, conflict-resolves the per-part proposals (removals are
  idempotent, so a union suffices; sub-paths are joined across
  partition boundaries; overlap units go back in subset-pair order),
  applies them to the subject's mutable state, and returns the stage
  result.

The registry maps stage names to :class:`StageSpec` pairs; execution
backends (:mod:`repro.parallel.backend`) look stages up by name so a
forked worker can resolve the kernel without shipping code.

Layering note: this module and the kernel modules under
``repro.distributed`` do not import :mod:`repro.mpi`; a kernel needs no
communicator, because every backend resolves it by name.  The
simulated-cluster adapter lives on the mpi side
(:mod:`repro.mpi.stage_backend`) and imports us.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

__all__ = [
    "StageSpec",
    "register_stage",
    "get_stage",
    "run_stage_on_comm",
    "union_proposals",
]


@dataclass(frozen=True)
class StageSpec:
    """One distributed stage as a (kernel, merge) pair.

    ``kernel(subject, part, **params)`` must be a pure, deterministic,
    module-level function returning picklable proposals (checked by
    running it in ``tests/distributed/test_stages.py``);
    ``merge(subject, proposals, **params)`` receives the proposal list
    indexed by part id and applies it on the master's subject.
    """

    name: str
    kernel: Callable[..., Any]
    merge: Callable[..., Any]


_STAGES: dict[str, StageSpec] = {}


def register_stage(name: str, kernel, merge) -> StageSpec:
    """Register a stage under a unique name; returns its spec.

    The kernel must be named ``*_kernel``: lint rule MEM001 finds
    kernels by that name.
    """
    if name in _STAGES:
        raise ValueError(f"duplicate stage name {name!r}")
    kernel_name = getattr(kernel, "__name__", "")
    if not kernel_name.endswith("_kernel"):
        raise ValueError(
            f"stage {name!r}: kernel {kernel_name!r} is not named *_kernel"
        )
    spec = StageSpec(name=name, kernel=kernel, merge=merge)
    _STAGES[name] = spec
    return spec


def _load_stage_modules() -> None:
    """Import every kernel-defining module (registration side effect)."""
    from repro.align import overlapper  # noqa: F401 (imports register stages)
    from repro.distributed import (  # noqa: F401 (imports register stages)
        containment,
        transitive,
        traversal,
        trimming,
    )


def get_stage(name: str) -> StageSpec:
    """Look a stage up by name, importing the stage modules on demand."""
    _load_stage_modules()
    try:
        return _STAGES[name]
    except KeyError:
        raise KeyError(
            f"unknown stage {name!r}; known: {sorted(_STAGES)}"
        ) from None


def union_proposals(proposals) -> np.ndarray:
    """Sorted unique int64 ids across per-partition proposal arrays.

    Boundary objects may be proposed by several owners (the paper notes
    removals are idempotent); the merge deduplicates so removal counts
    stay exact.
    """
    # dgraph imports the graph package, which imports alignment, whose
    # overlap stage registers here: import it on first call.
    from repro.distributed.dgraph import sorted_unique

    if len(proposals) == 0:
        return np.empty(0, dtype=np.int64)
    flat = np.concatenate(proposals, axis=None, dtype=np.int64, casting="unsafe")
    return sorted_unique(flat)


def run_stage_on_comm(comm, stage: StageSpec, subject, **params):
    """SPMD driver: run one stage on an MPI-style communicator.

    Rank ``r`` executes the kernel for part ``r`` under the virtual
    clock, proposals are gathered to the root, the root merges (also
    timed), and the result is broadcast — the paper's
    scan-locally/apply-centrally pattern, and the only gather → merge
    → bcast driver in the package.  It is a generator that yields each
    collective and is sent its result, as
    :class:`~repro.mpi.cluster.SimCluster` drives it.  The communicator
    is duck-typed (anything with ``rank``/``timed``/``gather``/
    ``bcast``), so this module stays free of :mod:`repro.mpi` imports.
    """
    with comm.timed():
        proposal = stage.kernel(subject, comm.rank, **params)
    gathered = yield comm.gather(proposal, root=0)
    result = None
    if comm.rank == 0:
        with comm.timed():
            result = stage.merge(subject, gathered, **params)
    return (yield comm.bcast(result, root=0))
