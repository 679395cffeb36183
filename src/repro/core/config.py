"""AssemblyConfig: all knobs of the Focus pipeline in one place.

A job's ``spec.json`` holds the whole config as JSON: :mod:`repro.io.codec`
writes and reads it, and refuses an unknown key or a value of the wrong
JSON type by its dotted key (``'overlap.k'``), so a misspelt option never
loads as the default and ``"false"`` never loads as true.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.align.overlapper import OverlapConfig
from repro.faults import FaultPlan, RetryPolicy
from repro.graph.coarsen import CoarsenConfig
from repro.partition.recursive import PartitionConfig

__all__ = ["AssemblyConfig"]


@dataclass(frozen=True)
class AssemblyConfig:
    """End-to-end configuration of a Focus run.

    Defaults follow the paper's evaluation: 50 bp minimum overlap, 90%
    minimum identity, partitioning on the hybrid graph set.
    """

    # -- preprocessing (paper §II-A) --
    trim5: int = 0
    trim3: int = 0
    quality_window: int = 10
    quality_step: int = 1
    min_quality: float = 15.0
    min_read_length: int = 50
    #: add each read's reverse complement (paper §II-A).  Required for
    #: full-coverage assembly of two-stranded data; mirrored contigs
    #: are then deduplicated at the end.
    add_reverse_complements: bool = True

    # -- stage configs --
    overlap: OverlapConfig = field(default_factory=OverlapConfig)
    coarsen: CoarsenConfig = field(default_factory=CoarsenConfig)
    partition: PartitionConfig = field(default_factory=PartitionConfig)

    #: OS worker processes for the alignment stage (0/1 = in-process
    #: serial; N > 1 runs the ``overlap`` stage on the process backend,
    #: which shares work only when ``overlap.n_subsets > 1``).
    overlap_workers: int = 0

    # -- distributed-stage execution --
    #: execution backend for the distributed graph stages: "serial"
    #: (in-process loop), "sim" (simulated MPI cluster, virtual clocks
    #: — the paper's figures), or "process" (real OS processes).
    backend: str = "sim"
    #: worker processes for the "process" backend (0 = one per
    #: partition, capped at the core count).
    backend_workers: int = 0

    # -- fault tolerance (docs/robustness.md) --
    #: retry/backoff/fallback policy of process-backend workers (the
    #: distributed stages, and alignment when ``overlap_workers > 1``);
    #: serial and sim run each kernel once.
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: deterministic faults to inject into process workers (None = no
    #: injection); requires ``backend == "process"``.  With retries
    #: enabled the final contigs stay byte-identical to the fault-free
    #: run under any plan whose faults fit the retry budget.
    fault_plan: FaultPlan | None = None

    # -- graph construction --
    #: offset slack allowed in cluster layouts (0 = exact diagonals).
    layout_tolerance: int = 0
    #: weight consensus votes by Phred base quality.
    quality_weighted_consensus: bool = False

    # -- out-of-core storage (docs/architecture.md, storage layer) --
    #: path of a sharded reads store (``repro pack``).  When set and no
    #: in-RAM reads are passed to :meth:`FocusAssembler.assemble`, the
    #: pipeline streams the store shard by shard.
    store_path: str | None = None
    #: LRU shard-cache byte budget of shard-backed read sets — the
    #: memory ceiling of the streaming data path (64 MiB default).
    cache_budget: int = 64 * 1024 * 1024

    # -- partitioning --
    #: number of graph partitions (k = 2^i).
    n_partitions: int = 4
    #: "hybrid" (the paper's contribution) or "multilevel" (naive baseline).
    partition_mode: str = "hybrid"

    # -- distributed graph cleaning (paper §V) --
    transitive_tolerance: int = 2
    containment_min_overlap: int = 50
    containment_min_identity: float = 0.9
    max_tip_bases: int = 150
    run_trimming: bool = True

    #: the run's one seed: every coarsening and partitioning draw starts from it.
    seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, not {self.seed!r}")
        if self.n_partitions < 1 or (self.n_partitions & (self.n_partitions - 1)) != 0:
            raise ValueError("n_partitions must be a power of two")
        if self.partition_mode not in ("hybrid", "multilevel"):
            raise ValueError(f"unknown partition_mode {self.partition_mode!r}")
        if self.min_read_length < 1:
            raise ValueError("min_read_length must be positive")
        if self.overlap_workers < 0:
            raise ValueError("overlap_workers must be non-negative")
        if self.backend not in ("serial", "sim", "process"):
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.backend_workers < 0:
            raise ValueError("backend_workers must be non-negative")
        if self.cache_budget < 0:
            raise ValueError("cache_budget must be non-negative")
        if self.fault_plan is not None and self.backend != "process":
            raise ValueError(
                "a fault plan fires only in process workers: it needs "
                f"backend='process', not {self.backend!r}"
            )
