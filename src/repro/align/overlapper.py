"""All-pairs read overlap detection (paper §II-B).

The read set is split into subsets; every unordered pair of subsets is
an independent work unit (this is what Focus farms out to processors).
Within a pair, the reference subset is k-mer indexed, query k-mers vote
for (query read, reference read, diagonal) candidates, and candidates
with enough votes are verified — by a fast ungapped identity check
(exact for the substitution-only error model) or by banded
Needleman–Wunsch.

A work unit never holds all of its k-mer hits: its query reads are cut
into contiguous *stripes* whose hit count stays under ``_MAX_HITS``,
and each stripe is voted and verified on its own — expand the stripe's
hit rows, pack ``(query, ref, diagonal)`` into one ``int64`` key, sort
the keys, run-length count the votes, keep the best diagonal per read
pair, and verify all of the stripe's candidates in one numpy sweep
(``banded_nw`` still verifies per candidate).  Every vote of a read
pair lies in the query read's stripe, so stripes need no merge and the
result does not depend on where they are cut.  A subset aligned against
itself on the k-mer index takes its hit ranges from the index's own
sort (:meth:`~repro.align.kmer_index.KmerIndex.self_join`) instead of
looking its k-mers up.  The per-query scalar form of the same selection
lives in ``tests/reference/overlap_loop.py`` as the test oracle.

Parallel alignment is the registered ``overlap`` stage
(:mod:`repro.distributed.stages`): :class:`OverlapSubject` packs the
subset pairs into parts, :func:`overlap_kernel` runs one part's pairs,
:func:`overlap_merge` puts the units back in subset-pair order — so the
serial loop, the simulated cluster and the process pool are the three
execution backends every other stage uses, and return identical rows.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.align.banded_nw import banded_align
from repro.align.kmer_index import KmerIndex
from repro.align.overlap import Overlap, PackedOverlaps
from repro.distributed.stages import register_stage
from repro.faults import FaultInjector, FaultPlan, RetryPolicy
from repro.graph.sparse import ragged_positions
from repro.io.readset import ReadSet
from repro.parallel.backend import ExecutionBackend, create_backend
from repro.parallel.schedule import lpt_assignment, subset_pair_costs

__all__ = [
    "OverlapConfig",
    "OverlapDetector",
    "OverlapSubject",
    "overlap_backend",
    "overlap_kernel",
    "overlap_merge",
    "subset_pairs",
]

#: most k-mer hit rows one stripe of query reads expands at once (a
#: read whose own hits exceed it is a stripe by itself).  Bounds the
#: stage's transient memory; the output does not depend on it.
_MAX_HITS = 1 << 20


def subset_pairs(n_subsets: int) -> list[tuple[int, int]]:
    """All unordered subset pairs, including self-pairs."""
    if n_subsets < 1:
        raise ValueError("n_subsets must be >= 1")
    return [(i, j) for i in range(n_subsets) for j in range(i, n_subsets)]


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Position of the first element of every run of equal neighbours."""
    first = np.ones(values.size, dtype=bool)
    first[1:] = values[1:] != values[:-1]
    return np.flatnonzero(first)


@dataclass(frozen=True)
class OverlapConfig:
    """Thresholds of the alignment stage.

    Defaults mirror the paper's evaluation settings: minimum overlap
    length 50 bp and minimum identity 90%.
    """

    k: int = 16
    min_kmer_hits: int = 3
    min_overlap: int = 50
    min_identity: float = 0.90
    method: str = "ungapped"  # "ungapped" | "banded_nw"
    #: reference index structure: "kmer" (sorted k-mer table) or
    #: "suffix_array" (the paper's structure; slower in Python).
    index: str = "kmer"
    band: int = 5
    #: work units of the ``overlap`` stage: the reads are split into
    #: this many subsets and every subset pair is one unit.  Not a
    #: memory knob — a unit's memory is bounded by the stripe budget.
    n_subsets: int = 1

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be positive")
        if self.min_kmer_hits < 1:
            raise ValueError("min_kmer_hits must be positive")
        if self.min_overlap < 1:
            raise ValueError("min_overlap must be positive")
        if not 0.0 <= self.min_identity <= 1.0:
            raise ValueError("min_identity must be in [0, 1]")
        if self.method not in ("ungapped", "banded_nw"):
            raise ValueError(f"unknown verification method {self.method!r}")
        if self.index not in ("kmer", "suffix_array"):
            raise ValueError(f"unknown index structure {self.index!r}")
        if self.n_subsets < 1:
            raise ValueError("n_subsets must be >= 1")


class OverlapDetector:
    """Finds all pairwise overlaps in a ReadSet."""

    def __init__(self, config: OverlapConfig | None = None) -> None:
        self.config = config or OverlapConfig()
        #: candidates sent to verification by the most recent
        #: ``find_overlaps*`` call.
        self.last_candidates = 0

    # -- one work unit ----------------------------------------------------

    def _unit_hits(
        self,
        reads: ReadSet,
        query_indices: np.ndarray,
        same_subset: bool,
        index,
    ) -> tuple[np.ndarray, ...]:
        """A work unit's query windows and each one's run of index rows.

        ``(win_reads, win_offsets, lo, counts, row_reads,
        row_offsets)``: the windows in ``query_indices`` order (one
        read's windows adjacent); window ``i`` hits rows ``lo[i] ..
        lo[i] + counts[i]`` of the two row tables.  A subset against
        its own k-mer index is a sorted self-join, which needs the
        index's run order to be read order — anything else (other
        subset, suffix array, reads not ascending) looks the windows up.
        """
        if (
            same_subset
            and isinstance(index, KmerIndex)
            and np.array_equal(query_indices, index.read_indices)
            and bool((query_indices[1:] > query_indices[:-1]).all())
        ):
            return index.self_join()
        vals, win_reads, win_offsets = reads.kmer_table(self.config.k, query_indices)
        return (win_reads, win_offsets, *index.hit_ranges(vals))

    def _stripe_candidates(
        self,
        hits: tuple[np.ndarray, ...],
        stripe: slice,
        same_subset: bool,
        n_reads: int,
        diag_lo: int,
        n_diags: int,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """(query, ref, diagonal) candidates of one stripe of windows.

        The hit rows of the :meth:`_unit_hits` windows in ``stripe``
        are expanded, packed into one sortable key per vote and
        run-length counted: candidates need ``min_kmer_hits`` votes and
        only the best-supported diagonal per read pair survives (ties
        resolved toward the larger diagonal).  Candidates come back in
        ``(query, ref)`` order.
        """
        win_reads, win_offsets, lo, counts, row_reads, row_offsets = hits
        counts = counts[stripe]
        rows = ragged_positions(lo[stripe], counts)
        q = np.repeat(win_reads[stripe], counts)
        r = row_reads[rows]
        key = (q * n_reads + r) * n_diags + (
            np.repeat(win_offsets[stripe], counts) - row_offsets[rows] - diag_lo
        )
        keep = r > q if same_subset else r != q
        if not keep.all():
            key = key[keep]
        if key.size == 0:
            return None
        key.sort()
        starts = _run_starts(key)
        votes = np.diff(starts, append=key.size)
        strong = votes >= self.config.min_kmer_hits
        if not strong.any():
            return None
        pair, diag = np.divmod(key[starts[strong]], n_diags)
        starts = _run_starts(pair)
        best = np.maximum.reduceat(votes[strong] * n_diags + diag, starts)
        cand_q, cand_r = np.divmod(pair[starts], n_reads)
        return cand_q, cand_r, best % n_diags + diag_lo

    @staticmethod
    def _batch_hamming_identity(
        codes: np.ndarray,
        q_start: np.ndarray,
        r_start: np.ndarray,
        length: np.ndarray,
    ) -> np.ndarray:
        """Ungapped identity of many spans in one flat numpy pass.

        Span ``i`` compares ``codes[q_start[i]:][:length[i]]`` with
        ``codes[r_start[i]:][:length[i]]``: both sides of every span are
        gathered into two flat arrays, compared elementwise, and the
        matches segment-summed with a cumulative-sum difference (no
        ``reduceat`` dtype traps).
        """
        total = int(length.sum())
        seg_starts = np.cumsum(length) - length
        within = np.arange(total, dtype=np.int64) - np.repeat(seg_starts, length)
        eq = codes[np.repeat(q_start, length) + within] == codes[
            np.repeat(r_start, length) + within
        ]
        cum = np.zeros(total + 1, dtype=np.int64)
        np.cumsum(eq, out=cum[1:])
        matches = cum[seg_starts + length] - cum[seg_starts]
        return matches / length

    def _verify_batch(
        self,
        reads: ReadSet,
        cand_q: np.ndarray,
        cand_r: np.ndarray,
        cand_d: np.ndarray,
    ) -> PackedOverlaps:
        """Batched span computation + identity verification.

        The overlap span implied by each candidate diagonal is computed
        vectorized (:func:`~repro.align.overlap.overlap_span` semantics),
        short spans are dropped, the distinct reads of the survivors
        are fetched as one block (:meth:`ReadSet.gather_reads` — one
        visit per shard on a store) and — for the ``ungapped`` method —
        every span's Hamming identity is evaluated in one numpy pass on
        it.  ``banded_nw`` falls back to per-candidate dynamic
        programming on the block's spans.
        """
        cfg = self.config
        lengths = reads.lengths
        len_q = lengths[cand_q]
        len_r = lengths[cand_r]
        q_start = np.maximum(cand_d, 0)
        r_start = np.maximum(-cand_d, 0)
        length = np.minimum(len_q - q_start, len_r - r_start)
        long_enough = length >= cfg.min_overlap
        if not long_enough.any():
            return PackedOverlaps.empty()
        cand_q, cand_r = cand_q[long_enough], cand_r[long_enough]
        q_start, r_start = q_start[long_enough], r_start[long_enough]
        length = length[long_enough]
        len_q, len_r = len_q[long_enough], len_r[long_enough]

        codes, starts, _ = reads.gather_reads(np.concatenate([cand_q, cand_r]))
        abs_q = starts[: cand_q.size] + q_start
        abs_r = starts[cand_q.size :] + r_start
        if cfg.method == "ungapped":
            identity = self._batch_hamming_identity(codes, abs_q, abs_r, length)
            accepted = identity >= cfg.min_identity
        else:
            identity = np.empty(length.size, dtype=np.float64)
            aln_length = np.empty(length.size, dtype=np.int64)
            for c, (lo_q, lo_r, ln) in enumerate(
                zip(abs_q.tolist(), abs_r.tolist(), length.tolist())
            ):
                result = banded_align(
                    codes[lo_q : lo_q + ln], codes[lo_r : lo_r + ln], band=cfg.band
                )
                identity[c] = result.identity
                aln_length[c] = result.length
            accepted = (identity >= cfg.min_identity) & (aln_length >= cfg.min_overlap)
        if not accepted.any():
            return PackedOverlaps.empty()
        cand_q, cand_r = cand_q[accepted], cand_r[accepted]
        q_start, r_start = q_start[accepted], r_start[accepted]
        length, identity = length[accepted], identity[accepted]
        len_q, len_r = len_q[accepted], len_r[accepted]

        # Vectorized overlap classification (classify_overlap semantics;
        # KIND_CODES order: EQUAL, QUERY_CONTAINED, REF_CONTAINED,
        # QUERY_LEFT, QUERY_RIGHT).
        q_full = (q_start == 0) & (length == len_q)
        r_full = (r_start == 0) & (length == len_r)
        kind_code = np.full(length.size, 4, dtype=np.uint8)  # QUERY_RIGHT
        kind_code[q_start > 0] = 3  # QUERY_LEFT
        kind_code[r_full] = 2  # REF_CONTAINED
        kind_code[q_full] = 1  # QUERY_CONTAINED
        kind_code[q_full & r_full] = 0  # EQUAL
        return PackedOverlaps(
            query=cand_q,
            ref=cand_r,
            q_start=q_start,
            r_start=r_start,
            length=length,
            identity=identity,
            kind_code=kind_code,
        )

    def overlap_subset_pair_packed(
        self,
        reads: ReadSet,
        query_indices: np.ndarray,
        ref_indices: np.ndarray,
        same_subset: bool,
        index=None,
        max_hits: int = _MAX_HITS,
    ) -> tuple[PackedOverlaps, int]:
        """One work unit in columnar form: (packed overlaps, candidates).

        This is the stage's wire format — seven flat arrays instead
        of thousands of :class:`Overlap` objects.  ``index`` optionally
        supplies a prebuilt reference-subset index so a kernel that
        touches one subset in several work units builds it only once.
        ``max_hits`` is the stripe budget (tests force it small; the
        result does not depend on it).
        """
        query_indices = np.asarray(query_indices, dtype=np.int64)
        if index is None:
            index = self._build_index(reads, ref_indices)
        hits = self._unit_hits(reads, query_indices, same_subset, index)
        win_reads, win_offsets, _, counts, _, row_offsets = hits
        if row_offsets.size == 0 or not counts.any():
            return PackedOverlaps.empty(), 0
        n_reads = len(reads)
        diag_lo = -int(row_offsets.max())
        n_diags = int(win_offsets.max()) - diag_lo + 1
        if n_reads * n_reads * n_diags >= 1 << 63:
            raise OverflowError("(query, ref, diagonal) does not fit one int64 key")
        # First window of every query read, and the hits before it.
        bounds = np.append(_run_starts(win_reads), win_reads.size)
        hits_before = np.zeros(bounds.size, dtype=np.int64)
        np.cumsum(np.add.reduceat(counts, bounds[:-1]), out=hits_before[1:])
        chunks: list[PackedOverlaps] = []
        n_candidates = 0
        b = 0
        while b < bounds.size - 1:
            limit = hits_before[b] + max_hits
            e = max(b + 1, int(np.searchsorted(hits_before, limit, side="right")) - 1)
            cand = self._stripe_candidates(
                hits, slice(bounds[b], bounds[e]), same_subset, n_reads, diag_lo, n_diags
            )
            b = e
            if cand is not None:
                n_candidates += int(cand[0].size)
                chunks.append(self._verify_batch(reads, *cand))
        return PackedOverlaps.concatenate(chunks), n_candidates

    # -- public API ---------------------------------------------------------

    def _build_index(self, reads: ReadSet, ref_indices: np.ndarray):
        if self.config.index == "suffix_array":
            from repro.align.sa_index import SuffixArrayReadIndex

            return SuffixArrayReadIndex(reads, self.config.k, ref_indices)
        return KmerIndex(reads, self.config.k, ref_indices)

    def overlap_subset_pair(
        self,
        reads: ReadSet,
        query_indices: np.ndarray,
        ref_indices: np.ndarray,
        same_subset: bool,
    ) -> list[Overlap]:
        """All overlaps between two read subsets (one work unit)."""
        packed, _ = self.overlap_subset_pair_packed(
            reads, query_indices, ref_indices, same_subset
        )
        return packed.to_overlaps()

    def find_overlaps_packed(self, reads: ReadSet, n_workers: int = 1) -> PackedOverlaps:
        """All pairwise overlaps of a ReadSet, as columns.

        The ``overlap`` stage on the in-process loop, or —
        ``n_workers > 1`` — on that many OS processes; rows are
        identical either way, in subset pair, then ``(query, ref)``
        order.
        """
        with overlap_backend(reads, self.config, n_workers) as backend:
            packed, self.last_candidates = backend.run_stage("overlap").result
        return packed

    def find_overlaps(self, reads: ReadSet) -> list[Overlap]:
        """All pairwise overlaps of a ReadSet (serial over subset pairs)."""
        return self.find_overlaps_packed(reads).to_overlaps()

    def find_overlaps_processes(
        self, reads: ReadSet, n_workers: int
    ) -> list[Overlap]:
        """All pairwise overlaps using real OS processes (paper §II-B).

        Result-identical (including list order) to :meth:`find_overlaps`.
        """
        return self.find_overlaps_packed(reads, n_workers).to_overlaps()


class OverlapSubject:
    """Alignment as a partitioned stage subject (docs/architecture.md).

    The reads are split into ``config.n_subsets`` subsets, every subset
    pair is a work unit, and the units are LPT-packed by estimated cost
    into at most ``n_parts`` parts — one kernel call each.  Nothing
    here is mutable, so ``state`` is empty.
    """

    state: tuple = ()

    def __init__(self, reads: ReadSet, config: OverlapConfig, n_parts: int = 1) -> None:
        self.reads = reads
        self.config = config
        self.subsets = reads.split(config.n_subsets)
        self.pairs = subset_pairs(len(self.subsets))
        self.unit_costs = subset_pair_costs(
            self.pairs, np.array([s.size for s in self.subsets])
        )
        self.n_parts = max(1, min(n_parts, len(self.pairs)))
        #: part that runs each unit of ``pairs``.
        self.owner = lpt_assignment(self.unit_costs, self.n_parts)

    def partition_costs(self) -> np.ndarray:
        """Estimated kernel cost per part: the sum of its units' costs."""
        return np.bincount(self.owner, weights=self.unit_costs, minlength=self.n_parts)

    def worker_view(self) -> "OverlapSubject":
        """A worker's own view: a shard-backed ReadSet is re-opened by
        store path, so the worker reads shards through its own cold
        cache instead of retaining the parent's mapped arrays or cache
        contents inherited over ``fork`` — worker RSS stays O(cache
        budget)."""
        if not hasattr(self.reads, "reopen"):
            return self
        return OverlapSubject(self.reads.reopen(), self.config, self.n_parts)


def overlap_kernel(subject: OverlapSubject, part: int) -> list[tuple]:
    """``(unit, overlap columns, candidates)`` of each pair packed into ``part``.

    Reference-subset indexes are built once and reused across the
    part's units that share them (on one part, subset ``j`` serves
    ``j + 1`` pairs).
    """
    detector = OverlapDetector(subject.config)
    reads, subsets = subject.reads, subject.subsets
    ref_indexes: dict[int, object] = {}
    units = []
    for unit, (i, j) in enumerate(subject.pairs):
        if subject.owner[unit] != part:
            continue
        index = ref_indexes.get(j)
        if index is None:
            index = ref_indexes[j] = detector._build_index(reads, subsets[j])
        packed, n_candidates = detector.overlap_subset_pair_packed(
            reads, subsets[i], subsets[j], same_subset=(i == j), index=index
        )
        units.append((unit, packed, n_candidates))
    return units


def overlap_merge(subject: OverlapSubject, proposals) -> tuple[PackedOverlaps, int]:
    """(overlap columns in subset-pair order, candidates verified)."""
    units = sorted((u for part in proposals for u in part), key=lambda u: u[0])
    packed = PackedOverlaps.concatenate([columns for _, columns, _ in units])
    return packed, sum(n for _, _, n in units)


register_stage("overlap", overlap_kernel, overlap_merge)


def overlap_backend(
    reads: ReadSet,
    config: OverlapConfig,
    n_workers: int = 1,
    retry: RetryPolicy | None = None,
    fault_plan: FaultPlan | None = None,
) -> ExecutionBackend:
    """The execution backend of one alignment run over ``reads``.

    ``n_workers > 1`` asks for the process pool with the subset pairs
    packed into ``min(n_workers, pairs)`` parts (one part ⇒ the backend
    runs its serial loop and spawns nothing); otherwise the in-process
    loop over one part.  A part's runtime grows with the input, so the
    per-task deadline — sized for graph kernels — is lifted rather than
    kill healthy workers on a large read set.
    """
    subject = OverlapSubject(reads, config, n_workers)
    return create_backend(
        "process" if n_workers > 1 else "serial",
        subject,
        workers=n_workers,
        retry=replace(retry or RetryPolicy(), task_deadline=None),
        injector=FaultInjector.for_parts(fault_plan, subject.n_parts),
    )
