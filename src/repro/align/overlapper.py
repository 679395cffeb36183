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

The serial, multiprocess
(:meth:`OverlapDetector.find_overlaps_processes`) and simulated-MPI
(:meth:`OverlapDetector.find_overlaps_parallel`) drivers produce
identical overlap lists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.align.banded_nw import banded_align
from repro.align.kmer_index import KmerIndex
from repro.align.overlap import Overlap, PackedOverlaps
from repro.graph.sparse import ragged_positions
from repro.io.readset import ReadSet

__all__ = ["OverlapConfig", "OverlapDetector", "subset_pairs"]

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
    #: work units of the parallel drivers: the reads are split into
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
        #: ``find_overlaps``/``find_overlaps_processes`` call (serial
        #: accounting only; the sim-MPI driver does not update it).
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

        This is the multiprocess wire format — seven flat arrays
        instead of thousands of :class:`Overlap` objects.  ``index``
        optionally supplies a prebuilt reference-subset index so
        drivers that touch one subset in several work units build it
        only once.  ``max_hits`` is the stripe budget (tests force it
        small; the result does not depend on it).
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

    def _pair_with_stats(
        self,
        reads: ReadSet,
        query_indices: np.ndarray,
        ref_indices: np.ndarray,
        same_subset: bool,
        index=None,
    ) -> tuple[list[Overlap], int]:
        packed, n_candidates = self.overlap_subset_pair_packed(
            reads, query_indices, ref_indices, same_subset, index=index
        )
        return packed.to_overlaps(), n_candidates

    def overlap_subset_pair(
        self,
        reads: ReadSet,
        query_indices: np.ndarray,
        ref_indices: np.ndarray,
        same_subset: bool,
    ) -> list[Overlap]:
        """All overlaps between two read subsets (one work unit)."""
        return self._pair_with_stats(reads, query_indices, ref_indices, same_subset)[0]

    def find_overlaps_packed(self, reads: ReadSet, n_workers: int = 1) -> PackedOverlaps:
        """All pairwise overlaps of a ReadSet, as columns.

        Serial over subset pairs, or — ``n_workers > 1`` — farmed out
        to that many OS processes (:func:`~repro.parallel.executor.
        run_subset_pairs`); rows are identical either way, in subset
        pair, then ``(query, ref)`` order.  Reference-subset indexes
        are built once and reused across the work units that share them
        (subset ``j`` serves ``j + 1`` pairs).
        """
        if n_workers > 1:
            from repro.parallel.executor import run_subset_pairs

            packed, stats = run_subset_pairs(self.config, reads, n_workers)
            self.last_candidates = stats.candidates
            return packed
        subsets = reads.split(self.config.n_subsets)
        chunks: list[PackedOverlaps] = []
        self.last_candidates = 0
        ref_indexes: dict[int, object] = {}
        for i, j in subset_pairs(len(subsets)):
            index = ref_indexes.get(j)
            if index is None:
                index = ref_indexes[j] = self._build_index(reads, subsets[j])
            part, nc = self.overlap_subset_pair_packed(
                reads, subsets[i], subsets[j], same_subset=(i == j), index=index
            )
            chunks.append(part)
            self.last_candidates += nc
        return PackedOverlaps.concatenate(chunks)

    def find_overlaps(self, reads: ReadSet) -> list[Overlap]:
        """All pairwise overlaps of a ReadSet (serial over subset pairs)."""
        return self.find_overlaps_packed(reads).to_overlaps()

    def find_overlaps_processes(
        self, reads: ReadSet, n_workers: int
    ) -> list[Overlap]:
        """All pairwise overlaps using real OS processes (paper §II-B).

        Subset pairs are farmed out to a ``ProcessPoolExecutor`` with
        ``n_workers`` workers, assigned largest-first so big work units
        start early.  Result-identical (including list order) to
        :meth:`find_overlaps`.
        """
        return self.find_overlaps_packed(reads, n_workers).to_overlaps()

    def find_overlaps_parallel(
        self, comm, reads: ReadSet, schedule: str = "lpt"
    ) -> list[Overlap]:
        """Parallel read alignment (paper §II-B) on a simulated cluster.

        Subset pairs are the independent work units.  ``schedule="lpt"``
        (default) assigns them largest-first by estimated cost
        ``|Q|·|R|`` (self-pairs halved) to the least-loaded rank;
        ``schedule="round_robin"`` reproduces the legacy blind striping.
        Every rank receives the merged overlap list.  Run via
        ``SimCluster(p).run(detector.find_overlaps_parallel, reads)``.
        Results match :meth:`find_overlaps` exactly (order aside) for
        any rank count and either schedule.
        """
        from repro.parallel.schedule import (
            lpt_assignment,
            round_robin_assignment,
            subset_pair_costs,
        )

        subsets = reads.split(self.config.n_subsets)
        pairs = subset_pairs(len(subsets))
        if schedule == "lpt":
            costs = subset_pair_costs(pairs, np.array([s.size for s in subsets]))
            owner = lpt_assignment(costs, comm.size)
        elif schedule == "round_robin":
            owner = round_robin_assignment(len(pairs), comm.size)
        else:
            raise ValueError(f"unknown schedule {schedule!r}")
        local: list[Overlap] = []
        ref_indexes: dict[int, object] = {}
        with comm.timed():
            for task, (i, j) in enumerate(pairs):
                if owner[task] != comm.rank:
                    continue
                index = ref_indexes.get(j)
                if index is None:
                    index = ref_indexes[j] = self._build_index(reads, subsets[j])
                local.extend(
                    self._pair_with_stats(
                        reads, subsets[i], subsets[j], same_subset=(i == j),
                        index=index,
                    )[0]
                )
        gathered = comm.gather(local, root=0)
        merged = None
        if comm.rank == 0:
            merged = [ov for part in gathered for ov in part]
        return comm.bcast(merged, root=0)
