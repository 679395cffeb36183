"""The Focus assembler pipeline (paper §II).

``FocusAssembler.assemble`` runs the six component steps end to end:
read preprocessing, read alignment, multilevel graph set generation,
hybrid graph set generation, hybrid graph trimming, and hybrid graph
traversal — with the distributed stages executed over the configured
number of graph partitions on the configured execution backend
(``serial`` in-process loop, ``sim``ulated MPI cluster with virtual
clocks, or real OS ``process`` workers — see docs/architecture.md).

The pipeline is split into :meth:`FocusAssembler.prepare` (everything
up to and including the hybrid graph — independent of the partition
count) and :meth:`FocusAssembler.finish` (partition, trim, traverse,
contigs), so benchmarks can sweep partition counts without re-aligning
reads.
"""

from __future__ import annotations

import copy
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.align.overlapper import overlap_backend
from repro.analysis.mapping import placement_groups
from repro.core.config import AssemblyConfig
from repro.core.pipeline import StageTimer
from repro.core.stats import AssemblyStats
from repro.distributed.dgraph import DistributedAssemblyGraph, HybridAssembly, enrich_hybrid
from repro.distributed.traversal import contigs_from_paths
from repro.faults import FaultReport
from repro.io.store import CheckpointState, load_checkpoint, save_checkpoint
from repro.graph.coarsen import MultilevelGraphSet, build_multilevel_set
from repro.graph.hybrid import HybridGraphSet, build_hybrid_set
from repro.graph.overlap_graph import OverlapGraph
from repro.io.readset import ReadSet
from repro.mpi.timing import CommCostModel
from repro.parallel.backend import ExecutionBackend, StageOutcome, create_backend
from repro.partition.metrics import node_weight_balance
from repro.partition.multilevel import (
    PartitionResult,
    partition_via_hybrid,
    partition_via_multilevel,
)
from repro.sequence.dna import N, decode, hamming_identity, reverse_complement

__all__ = [
    "FINISH_STAGES",
    "finish_plan",
    "run_plan",
    "PreparedAssembly",
    "AssemblyResult",
    "FocusAssembler",
    "deduplicate_contigs",
]


def finish_plan(config: AssemblyConfig) -> list[tuple[str, dict]]:
    """The finish stages ``config`` runs, in order, each with its
    kernel parameters: the trimming stages (unless ``run_trimming`` is
    off), then the maximal-path traversal (paper §II, Fig. 6)."""
    trim = [
        ("transitive", {"tolerance": config.transitive_tolerance}),
        (
            "containment",
            {
                "min_overlap": config.containment_min_overlap,
                "min_identity": config.containment_min_identity,
            },
        ),
        ("dead_ends", {"max_tip_bases": config.max_tip_bases}),
        ("bubbles", {}),
    ]
    return (trim if config.run_trimming else []) + [("traversal", {})]


def run_plan(
    runner: ExecutionBackend,
    plan: list[tuple[str, dict]],
    done: frozenset[str] = frozenset(),
    after: Callable[[str, StageOutcome], None] | None = None,
) -> dict[str, StageOutcome]:
    """Run each stage of ``plan`` not in ``done`` on ``runner``, in
    order, calling ``after(name, outcome)`` once each has merged."""
    outcomes = {}
    for name, params in plan:
        if name in done:
            continue
        outcomes[name] = runner.run_stage(name, **params)
        if after is not None:
            after(name, outcomes[name])
    return outcomes


#: the distributed stages :meth:`FocusAssembler.finish` runs, in the
#: sorted order seeded ``random:SEED`` fault plans draw over — the
#: registry also holds ``overlap``, which :meth:`FocusAssembler.prepare`
#: runs, and drawing over it would silently re-draw every recorded plan.
FINISH_STAGES = tuple(sorted(name for name, _ in finish_plan(AssemblyConfig())))


#: k-mer length of the dedupe placement (odd, as placement needs).
_DEDUPE_K = 21


def deduplicate_contigs(
    contigs: list[np.ndarray], min_identity: float = 0.98
) -> list[np.ndarray]:
    """Drop contigs that duplicate another up to reverse complement.

    With reverse-complement-augmented reads every genomic region
    assembles twice (once per strand).  The mirror assemblies are built
    from independent consensus calls, so they can differ by a few
    bases or an end offset — containment is therefore checked by
    k-mer-anchored placement at ``min_identity``, not exact substring
    match.  The longer spelling of each mirrored/contained group wins.
    """
    if not contigs:
        return []
    # Longest first (stable): a contig can only duplicate one that
    # precedes it here, so the contigs are their own index.  A query's
    # first vote group on a kept contig is the first maximum among the
    # kept references: none at or after its rank is kept yet.  The
    # contigs under 64 bases, the tail, are only string-scanned.
    ranked = sorted(contigs, key=lambda c: -c.size)
    placed = ranked[: sum(c.size >= 64 for c in ranked)]
    bounds, ref, start, votes = (a.tolist() for a in placement_groups(placed, _DEDUPE_K))
    kept = [False] * len(ranked)
    kept_strings: list[str] = []
    for rank, contig in enumerate(ranked):
        size = contig.size
        duplicate = False
        # '+' is tried first; either strand verifying makes a duplicate.
        for slot in (2 * rank, 2 * rank + 1) if size >= 64 else ():
            g = next(
                (g for g in range(bounds[slot], bounds[slot + 1]) if kept[ref[g]]),
                None,
            )
            if g is None or votes[g] < 3:
                continue
            target, lo = ranked[ref[g]], start[g]
            if lo < 0 or lo + size > target.size:
                continue
            seq = contig if slot % 2 == 0 else reverse_complement(contig)
            if hamming_identity(seq, target[lo : lo + size]) >= min_identity:
                duplicate = True
                break
        # An exact copy of an N-free contig >= 64 puts all its k-mers on
        # one in-range diagonal, so the placement finds it at identity
        # 1.0; only contigs the placement cannot decide are string-scanned.
        if not duplicate and (size < 64 or (contig >= N).any()):
            seq = decode(contig)
            rc = decode(reverse_complement(contig))
            duplicate = any(seq in s or rc in s for s in kept_strings)
        if not duplicate:
            kept[rank] = True
            kept_strings.append(decode(contig))
    return [c for c, keep in zip(ranked, kept) if keep]


@contextmanager
def _cache_counted(timer: StageTimer, reads: ReadSet):
    """Count the read store cache's hits, misses and evictions inside
    the open stage, when ``reads`` is store-backed."""
    store = getattr(reads, "store", None)
    before = None if store is None else store.cache.stats()
    yield
    if store is not None:
        after = store.cache.stats()
        for name in ("hits", "misses", "evictions"):
            timer.count(f"cache_{name}", getattr(after, name) - getattr(before, name))


@dataclass
class PreparedAssembly:
    """Partition-count-independent intermediate state of a Focus run."""

    reads: ReadSet
    g0: OverlapGraph
    mls: MultilevelGraphSet
    hyb: HybridGraphSet
    assembly: HybridAssembly
    timer: StageTimer
    #: fault activity of the alignment stage.
    fault_report: FaultReport = field(default_factory=FaultReport)


@dataclass
class AssemblyResult:
    """Everything an assembly run produced, for analysis and benches."""

    contigs: list[np.ndarray]
    stats: AssemblyStats
    timer: StageTimer
    #: per-distributed-stage seconds on the backend's clock — virtual
    #: (simulated-cluster) for the "sim" backend, wall otherwise.
    virtual_times: dict[str, float]
    processed_reads: ReadSet
    g0: OverlapGraph
    mls: MultilevelGraphSet
    hyb: HybridGraphSet
    assembly: HybridAssembly
    dag: DistributedAssemblyGraph
    partition: PartitionResult
    #: the traversal's paths, packed: (flat node ids, per-path lengths).
    paths: tuple[np.ndarray, np.ndarray]
    #: execution backend the distributed stages ran on.
    backend: str = "sim"
    #: clock kind of ``virtual_times``: "virtual" or "wall".
    time_kind: str = "virtual"
    #: cumulative fault-injection/retry/recovery accounting of the
    #: alignment and distributed stages (no activity on a clean run).
    fault_report: FaultReport | None = None

    @property
    def read_partitions(self) -> np.ndarray:
        """Partition id of every processed read (via its hybrid node)."""
        return self.partition.labels_finest[self.hyb.base_maps[0]]


class FocusAssembler:
    """End-to-end Focus assembly on the configured execution backend."""

    def __init__(
        self,
        config: AssemblyConfig | None = None,
        cost_model: CommCostModel | None = None,
    ) -> None:
        self.config = config or AssemblyConfig()
        self.cost_model = cost_model or CommCostModel()

    # -- stages ----------------------------------------------------------

    def preprocess(self, reads: ReadSet) -> ReadSet:
        cfg = self.config
        out = reads.trimmed(
            trim5=cfg.trim5,
            trim3=cfg.trim3,
            window=cfg.quality_window,
            step=cfg.quality_step,
            min_quality=cfg.min_quality,
            min_length=cfg.min_read_length,
        )
        if cfg.add_reverse_complements:
            out = out.with_reverse_complements()
        return out

    def prepare(self, reads: ReadSet) -> PreparedAssembly:
        """Preprocess, align, and build the graph structures."""
        cfg = self.config
        timer = StageTimer()
        with timer.stage("preprocess"), _cache_counted(timer, reads):
            rs = self.preprocess(reads)
            timer.count("reads_kept", len(rs))
        if len(rs) == 0:
            raise ValueError("no reads survived preprocessing")
        with timer.stage("align"), _cache_counted(timer, rs):
            with overlap_backend(
                rs, cfg.overlap, cfg.overlap_workers, cfg.retry, cfg.fault_plan
            ) as aligner:
                overlaps, candidates = aligner.run_stage("overlap").result
            timer.count("candidates_verified", candidates)
            timer.count("overlaps", len(overlaps))
            timer.count("retries", aligner.fault_report.retries)
            timer.count("fallbacks", aligner.fault_report.fallbacks)
        with timer.stage("overlap_graph"):
            g0 = OverlapGraph.from_overlaps(overlaps, len(rs))
            timer.count("g0_edges", g0.n_edges)
        with timer.stage("coarsen"):
            mls = build_multilevel_set(g0, cfg.coarsen, cfg.seed)
            timer.count("levels", mls.n_levels)
        with timer.stage("hybrid"):
            hyb = build_hybrid_set(
                mls, rs.lengths, tolerance=cfg.layout_tolerance, count=timer.count
            )
            timer.count("hybrid_nodes", hyb.hybrid.n_nodes)
        with timer.stage("enrich"), _cache_counted(timer, rs):
            assembly = enrich_hybrid(
                hyb,
                g0,
                rs,
                tolerance=cfg.layout_tolerance,
                quality_weighted=cfg.quality_weighted_consensus,
            )
        return PreparedAssembly(
            reads=rs,
            g0=g0,
            mls=mls,
            hyb=hyb,
            assembly=assembly,
            timer=timer,
            fault_report=aligner.fault_report,
        )

    def _hybrid_labels(
        self, result: PartitionResult, hyb: HybridGraphSet
    ) -> np.ndarray:
        """Partition label per hybrid node, whatever mode produced it."""
        if result.labels_finest.size == hyb.hybrid.n_nodes:
            return result.labels_finest
        # multilevel mode: labels live on G0; vote per hybrid cluster.
        k = result.k
        n = hyb.hybrid.n_nodes
        votes = np.bincount(hyb.base_maps[0] * k + result.labels_g0, minlength=n * k)
        return votes.reshape(n, k).argmax(axis=1).astype(np.int64)

    def _fingerprint(self, prep: PreparedAssembly, k: int, mode: str) -> dict:
        """Run identity recorded in checkpoints: a resume against a
        checkpoint from a different input or configuration is refused.
        It holds the whole :func:`finish_plan`, so every finish stage
        parameter guards a resume.

        For shard-backed reads the store manifest digest is included
        (``store``), so resuming against a store whose shards changed
        underneath the checkpoint is refused too; in-RAM read sets
        record ``None``.
        """
        cfg = self.config
        return {
            "n_reads": len(prep.reads),
            "store": getattr(prep.reads, "store_fingerprint", None),
            "n_hybrid_nodes": int(prep.hyb.hybrid.n_nodes),
            "n_partitions": int(k),
            "partition_mode": mode,
            # Lists, not tuples: the header round-trips through JSON.
            "plan": [[name, params] for name, params in finish_plan(cfg)],
            "seed": int(cfg.seed),
        }

    def finish(
        self,
        prep: PreparedAssembly,
        n_partitions: int | None = None,
        partition_mode: str | None = None,
        backend: str | None = None,
        checkpoint: str | os.PathLike | None = None,
        resume: bool = False,
        on_stage=None,
    ) -> AssemblyResult:
        """Partition, run :func:`finish_plan` through :func:`run_plan`,
        and build contigs.

        May be called repeatedly on one :class:`PreparedAssembly` with
        different partition counts/modes/backends; each call works on a
        fresh distributed view.  The distributed stages execute on the
        configured backend (``serial``, ``sim``, or ``process``) —
        contigs are byte-identical across backends; only where the
        kernels run and which clock fills ``virtual_times`` changes.

        With ``checkpoint`` set, the alive-masks and completed-stage
        times are persisted (atomically) after every distributed stage;
        ``resume=True`` restores that state and re-runs only the
        stages that had not completed.  A checkpoint whose fingerprint
        does not match the current run is rejected with
        :class:`ValueError`; a missing checkpoint file simply starts
        from the beginning.  Restored stages keep their recorded times
        in :attr:`AssemblyResult.virtual_times` but add no entry to
        the :class:`StageTimer` (nothing was executed).

        ``on_stage`` is an optional callable invoked with the stage
        name after each distributed stage completes (and, when a
        checkpoint path is set, after its checkpoint is durable) — the
        job service uses it to journal progress, heartbeat leases, and
        observe cancellation between stages.  Restored stages do not
        fire it.  An exception raised by the callback aborts the run
        (the just-written checkpoint survives for the next resume).
        """
        cfg = self.config
        k = cfg.n_partitions if n_partitions is None else n_partitions
        mode = cfg.partition_mode if partition_mode is None else partition_mode
        backend_name = cfg.backend if backend is None else backend
        if k < 1 or (k & (k - 1)) != 0:
            raise ValueError("n_partitions must be a power of two")
        if mode not in ("hybrid", "multilevel"):
            raise ValueError(f"unknown partition_mode {mode!r}")
        if resume and checkpoint is None:
            raise ValueError("resume=True requires a checkpoint path")

        timer = copy.deepcopy(prep.timer)
        # Seconds of every completed stage, in completion order.
        stage_times: dict[str, float] = {}

        with timer.stage("partition"):
            if mode == "hybrid":
                part = partition_via_hybrid(prep.mls, prep.hyb, k, cfg.partition, cfg.seed)
            else:
                part = partition_via_multilevel(prep.mls, k, cfg.partition, cfg.seed)
            labels_h = self._hybrid_labels(part, prep.hyb)
            if mode == "multilevel":
                part.labels_finest = labels_h
            timer.count("edge_cut", part.cut_finest)
            timer.count("imbalance", node_weight_balance(prep.hyb.hybrid, labels_h, k))

        dag = DistributedAssemblyGraph(prep.assembly, labels_h)
        fingerprint = self._fingerprint(prep, k, mode)

        restored_paths: tuple[np.ndarray, np.ndarray] | None = None
        if resume and os.path.exists(checkpoint):
            state = load_checkpoint(checkpoint)
            if state.fingerprint != fingerprint:
                raise ValueError(
                    f"checkpoint {str(checkpoint)!r} does not match this run: "
                    f"saved fingerprint {state.fingerprint} != "
                    f"current {fingerprint}"
                )
            dag.node_alive = np.asarray(state.node_alive, dtype=bool)
            dag.edge_alive = np.asarray(state.edge_alive, dtype=bool)
            stage_times.update(state.stage_times)
            restored_paths = state.paths

        runner = create_backend(
            backend_name,
            dag,
            workers=cfg.backend_workers,
            cost_model=self.cost_model,
            retry=cfg.retry,
            fault_plan=cfg.fault_plan,
        )

        mark = time.perf_counter()
        alive = dag.n_alive_nodes, dag.n_alive_edges
        faults = 0, 0

        def after(name: str, out: StageOutcome) -> None:
            nonlocal mark, alive, faults
            stage_times[name] = out.elapsed
            if checkpoint is not None:
                save_checkpoint(
                    CheckpointState(
                        fingerprint=fingerprint,
                        node_alive=dag.node_alive,
                        edge_alive=dag.edge_alive,
                        stage_times=dict(stage_times),
                        paths=out.result if name == "traversal" else None,
                    ),
                    checkpoint,
                )
            if on_stage is not None:
                on_stage(name)
            # Only executed stages are timed, each with its checkpoint;
            # the stage itself is a child span on the backend's clock.
            outer = timer.record(
                "traverse" if name == "traversal" else "trim", time.perf_counter() - mark
            )
            child = timer.record(name, out.elapsed, within=outer, clock=out.time_kind)
            left = dag.n_alive_nodes, dag.n_alive_edges
            report = runner.fault_report
            now = report.retries, report.fallbacks
            child.counts.update(
                nodes_removed=alive[0] - left[0],
                edges_removed=alive[1] - left[1],
                retries=now[0] - faults[0],
                fallbacks=now[1] - faults[1],
            )
            mark, alive, faults = outer.end, left, now

        try:
            outcomes = run_plan(runner, finish_plan(cfg), frozenset(stage_times), after)
        finally:
            runner.close()
        paths = outcomes["traversal"].result if "traversal" in outcomes else restored_paths

        fault_report = FaultReport()
        fault_report.merge(prep.fault_report)
        fault_report.merge(runner.fault_report)

        with timer.stage("contigs"):
            contigs = contigs_from_paths(dag, paths, count=timer.count)
        if cfg.add_reverse_complements:
            with timer.stage("dedupe"):
                timer.count("contigs_in", len(contigs))
                contigs = deduplicate_contigs(contigs)
                timer.count("contigs_kept", len(contigs))

        return AssemblyResult(
            contigs=contigs,
            stats=AssemblyStats.from_contigs(contigs),
            timer=timer,
            virtual_times=stage_times,
            processed_reads=prep.reads,
            g0=prep.g0,
            mls=prep.mls,
            hyb=prep.hyb,
            assembly=prep.assembly,
            dag=dag,
            partition=part,
            paths=paths,
            backend=runner.name,
            time_kind=runner.time_kind,
            fault_report=fault_report,
        )

    def open_reads(self) -> ReadSet:
        """Open the configured sharded store as a lazy ReadSet."""
        cfg = self.config
        if cfg.store_path is None:
            raise ValueError("config.store_path is not set")
        return ReadSet.open(cfg.store_path, cache_budget=cfg.cache_budget)

    def assemble(self, reads: ReadSet | None = None) -> AssemblyResult:
        """prepare + finish in one call.

        With ``reads=None`` the configured ``store_path`` is opened as
        a shard-backed ReadSet and the whole pipeline streams from it —
        contigs are byte-identical to the in-RAM path on every backend.
        """
        if reads is None:
            reads = self.open_reads()
        return self.finish(self.prepare(reads))
