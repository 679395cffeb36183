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

import os
import time
from dataclasses import dataclass, field
from math import prod
from typing import Callable

import numpy as np

from repro.align.overlapper import overlap_backend
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
from repro.io.readset import ReadSet, ragged_positions
from repro.mpi.timing import CommCostModel
from repro.parallel.backend import ExecutionBackend, StageOutcome, create_backend
from repro.partition.multilevel import (
    PartitionResult,
    partition_via_hybrid,
    partition_via_multilevel,
)
from repro.sequence.dna import N, decode, hamming_identity, reverse_complement
from repro.sequence.kmers import kmer_codes, stable_sort

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
#: registry also holds ``overlap`` and ``variants``, and drawing over
#: it would silently re-draw every recorded plan.
FINISH_STAGES = tuple(sorted(name for name, _ in finish_plan(AssemblyConfig())))


#: k-mer length of the dedupe placement.  Odd, so no k-mer is its own
#: reverse complement: every window is canonical on exactly one strand.
_DEDUPE_K = 21

#: bits a packed vote key may use (one non-negative ``int64``).
_KEY_BITS = 63


def _count_rows(
    cols: list[np.ndarray], widths: list[int]
) -> tuple[list[np.ndarray], np.ndarray]:
    """The distinct rows of ``cols`` in lexicographic order, as columns,
    and how many times each occurs.

    Column ``j`` holds non-negative values below ``widths[j]``.  When
    the product of the widths fits in :data:`_KEY_BITS` bits the rows
    pack into one ``int64`` for a single ``np.unique``; otherwise a
    ``lexsort`` orders them and the runs are cut where any column
    changes, as :func:`stable_sort` falls back to ``argsort``.
    """
    if prod(widths) <= 1 << _KEY_BITS:
        key = np.zeros(cols[0].size, dtype=np.int64)
        for col, width in zip(cols, widths):
            key *= width
            key += col
        key, counts = np.unique(key, return_counts=True)
        rows = []
        for width in reversed(widths):
            key, col = np.divmod(key, width)
            rows.append(col)
        return rows[::-1], counts
    order = np.lexsort(cols[::-1])
    rows = [col[order] for col in cols]
    repeat = np.zeros(order.size, dtype=bool)
    repeat[1:] = True
    for col in rows:
        repeat[1:] &= col[1:] == col[:-1]
    starts = np.flatnonzero(~repeat)
    return [col[starts] for col in rows], np.diff(np.append(starts, order.size))


def _placement_groups(
    ranked: list[np.ndarray],
) -> tuple[list[int], list[int], list[int], list[int]]:
    """Every ranked contig of >= 64 bases placed on every earlier-ranked
    one, both strands, by one canonical k-mer self-join.

    Returns ``(bounds, ref, start, votes)``: the vote groups of query
    ``q`` on strand ``s`` (0 is '+') are ``bounds[2q + s]`` up to
    ``bounds[2q + s + 1]``, most votes first, then by (ref, start).
    """
    k, n = _DEDUPE_K, len(ranked)
    sizes = np.array([c.size for c in ranked], dtype=np.int64)
    starts = np.cumsum(sizes + 1) - (sizes + 1)
    sep = np.full(1, N, dtype=np.uint8)
    joined = np.concatenate([part for c in ranked for part in (c, sep)])
    # Every window's value and its reverse complement's, from one pass
    # per strand; the canonical k-mer is the smaller of the two.
    fwd = kmer_codes(joined, k)
    rev = kmer_codes(reverse_complement(joined), k)[::-1]
    row = np.flatnonzero(fwd >= 0)
    fwd, rev = fwd[row], rev[row]
    owner = np.searchsorted(starts, row, side="right") - 1
    pos = row - starts[owner]
    flipped = rev < fwd
    canon, order = stable_sort(np.minimum(fwd, rev))
    owner, pos, flipped = owner[order], pos[order], flipped[order]
    # Within a run of one canonical k-mer the rows are in rank order,
    # so each row's earlier-ranked partners are a prefix of its run.
    idx = np.arange(canon.size)
    new_run = np.ones(canon.size, dtype=bool)
    new_run[1:] = canon[1:] != canon[:-1]
    new_owner = new_run.copy()
    new_owner[1:] |= owner[1:] != owner[:-1]
    run_first = np.maximum.accumulate(np.where(new_run, idx, 0))
    partners = np.maximum.accumulate(np.where(new_owner, idx, 0)) - run_first
    partners[sizes[owner] < 64] = 0
    ref_row = ragged_positions(run_first, partners)
    q_row = np.repeat(idx, partners)
    # One vote per (earlier ref row, query row): '+' when both read the
    # canonical k-mer on the same strand, '-' otherwise, with the query
    # position mapped onto its reverse complement.
    query, ref = owner[q_row], owner[ref_row]
    minus = flipped[q_row] != flipped[ref_row]
    q_pos = pos[q_row]
    q_pos = np.where(minus, sizes[query] - k - q_pos, q_pos)
    bias = max(int(sizes[0]) - k, 0)
    (slot, ref, diag), votes = _count_rows(
        [query * 2 + minus, ref, pos[ref_row] - q_pos + bias],
        [2 * n, n, 2 * bias + 1],
    )
    order = np.lexsort((diag, ref, -votes, slot))
    return (
        np.searchsorted(slot[order], np.arange(2 * n + 1)).tolist(),
        ref[order].tolist(),
        (diag[order] - bias).tolist(),
        votes[order].tolist(),
    )


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
    # kept references: none at or after its rank is kept yet.
    ranked = sorted(contigs, key=lambda c: -c.size)
    bounds, ref, start, votes = _placement_groups(ranked)
    kept = [False] * len(ranked)
    kept_strings: list[str] = []
    for rank, contig in enumerate(ranked):
        size = contig.size
        duplicate = False
        # '+' is tried first; either strand verifying makes a duplicate.
        for slot in (2 * rank, 2 * rank + 1):
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
        with timer.stage("preprocess"):
            rs = self.preprocess(reads)
        if len(rs) == 0:
            raise ValueError("no reads survived preprocessing")
        with timer.stage("align"):
            with overlap_backend(
                rs, cfg.overlap, cfg.overlap_workers, cfg.retry, cfg.fault_plan
            ) as aligner:
                overlaps, _ = aligner.run_stage("overlap").result
        with timer.stage("overlap_graph"):
            g0 = OverlapGraph.from_overlaps(overlaps, len(rs))
        with timer.stage("coarsen"):
            mls = build_multilevel_set(g0, cfg.coarsen, cfg.seed)
        with timer.stage("hybrid"):
            hyb = build_hybrid_set(mls, rs.lengths, tolerance=cfg.layout_tolerance)
        with timer.stage("enrich"):
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

        timer = StageTimer()
        timer.durations.update(prep.timer.durations)
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

        def after(name: str, out: StageOutcome) -> None:
            nonlocal mark
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
            # Only executed stages are timed, each with its checkpoint.
            now = time.perf_counter()
            timer.record("traverse" if name == "traversal" else "trim", now - mark)
            mark = now

        try:
            outcomes = run_plan(runner, finish_plan(cfg), frozenset(stage_times), after)
        finally:
            runner.close()
        paths = outcomes["traversal"].result if "traversal" in outcomes else restored_paths

        fault_report = FaultReport()
        fault_report.merge(prep.fault_report)
        fault_report.merge(runner.fault_report)

        with timer.stage("contigs"):
            contigs = contigs_from_paths(dag, paths)
        if cfg.add_reverse_complements:
            with timer.stage("dedupe"):
                contigs = deduplicate_contigs(contigs)

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
