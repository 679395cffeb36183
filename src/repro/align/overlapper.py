"""All-pairs read overlap detection (paper §II-B).

The read set is split into subsets; every unordered pair of subsets is
an independent work unit (this is what Focus farms out to processors).
Within a pair, the reference subset is k-mer indexed, query k-mers vote
for (query read, reference read, diagonal) candidates, and candidates
with enough votes are verified — by a fast ungapped identity check
(exact for the substitution-only error model) or by banded
Needleman–Wunsch.

A work unit is processed in bulk: one
:meth:`~repro.io.readset.ReadSet.kmer_table` + ``lookup`` for *all*
query reads of the subset, a single lexsort/group-by over
``(query, ref, diagonal)`` to produce every candidate at once, and a
batched verification pass that evaluates all overlap spans and their
ungapped Hamming identities in one numpy sweep (``banded_nw`` still
verifies per candidate).  The per-query scalar form of the same
selection lives in ``tests/reference/overlap_loop.py`` as the test
oracle.

The serial, multiprocess
(:meth:`OverlapDetector.find_overlaps_processes`) and simulated-MPI
(:meth:`OverlapDetector.find_overlaps_parallel`) drivers produce
identical overlap lists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.align.banded_nw import banded_align
from repro.align.kmer_index import KmerIndex, compress_queries
from repro.align.overlap import Overlap, PackedOverlaps
from repro.io.readset import ReadSet

__all__ = ["OverlapConfig", "OverlapDetector", "subset_pairs"]


def subset_pairs(n_subsets: int) -> list[tuple[int, int]]:
    """All unordered subset pairs, including self-pairs."""
    if n_subsets < 1:
        raise ValueError("n_subsets must be >= 1")
    return [(i, j) for i in range(n_subsets) for j in range(i, n_subsets)]


def _argsort_keys(*keys: np.ndarray) -> np.ndarray:
    """Stable argsort by the given keys, primary key first.

    Equivalent to ``np.lexsort(tuple(reversed(keys)))`` but packs the
    keys into one composite ``int64`` when their ranges fit 62 bits —
    a single sort pass instead of one stable sort per key.  Falls back
    to ``np.lexsort`` for extreme ranges.
    """
    if keys[0].size == 0:
        return np.empty(0, dtype=np.int64)
    spans: list[tuple[int, int]] = []
    fits = True
    capacity = 1
    for k in keys:
        lo = int(k.min())
        span = int(k.max()) - lo + 1
        spans.append((lo, span))
        capacity *= span
        if capacity >= (1 << 62):
            fits = False
            break
    if not fits:
        return np.lexsort(tuple(reversed(keys)))
    composite = np.zeros(keys[0].size, dtype=np.int64)
    for k, (lo, span) in zip(keys, spans):
        composite *= span
        composite += k - lo
    return np.argsort(composite, kind="stable")


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

    def _pair_candidates_vectorized(
        self,
        reads: ReadSet,
        query_indices: np.ndarray,
        ref_indices: np.ndarray,
        same_subset: bool,
        index=None,
        query_batch=None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All (query, ref, diagonal) candidates of a work unit at once.

        One concatenated index lookup for every query read's k-mers,
        then a single sort/group-by over ``(query, ref, diagonal)``
        counts the votes: candidates need ``min_kmer_hits`` votes and
        only the best-supported diagonal per read pair survives (ties
        resolved toward the larger diagonal).  ``query_batch``
        optionally supplies a prebuilt :meth:`_query_batch` for the
        query subset, reused across the work units that share it.
        """
        cfg = self.config
        if index is None:
            index = self._build_index(reads, ref_indices)
        if query_batch is None:
            query_batch = self._query_batch(reads, query_indices)
        vals, kmer_read, kmer_off, compressed = query_batch
        if isinstance(index, KmerIndex):
            qpos, hit_reads, hit_offsets = index.lookup(vals, compressed=compressed)
        else:
            qpos, hit_reads, hit_offsets = index.lookup(vals)
        empty = np.empty(0, dtype=np.int64)
        if qpos.size == 0:
            return empty, empty.copy(), empty.copy()
        q_reads = kmer_read[qpos]
        keep = hit_reads > q_reads if same_subset else hit_reads != q_reads
        if not keep.all():
            qpos, hit_reads, hit_offsets = qpos[keep], hit_reads[keep], hit_offsets[keep]
            q_reads = q_reads[keep]
        if qpos.size == 0:
            return empty, empty.copy(), empty.copy()
        diag = kmer_off[qpos] - hit_offsets
        # Group votes by (query, ref, diagonal).
        order = _argsort_keys(q_reads, hit_reads, diag)
        q_s, r_s, d_s = q_reads[order], hit_reads[order], diag[order]
        boundary = np.ones(q_s.size, dtype=bool)
        boundary[1:] = (
            (q_s[1:] != q_s[:-1]) | (r_s[1:] != r_s[:-1]) | (d_s[1:] != d_s[:-1])
        )
        starts = np.flatnonzero(boundary)
        counts = np.diff(np.append(starts, q_s.size))
        g_q, g_r, g_d = q_s[starts], r_s[starts], d_s[starts]
        strong = counts >= cfg.min_kmer_hits
        if not strong.any():
            return empty, empty.copy(), empty.copy()
        g_q, g_r, g_d, counts = g_q[strong], g_r[strong], g_d[strong], counts[strong]
        # Best-supported diagonal per (query, ref) pair.
        order = _argsort_keys(g_q, g_r, counts, g_d)
        g_q, g_r, g_d = g_q[order], g_r[order], g_d[order]
        last = np.ones(g_q.size, dtype=bool)
        last[:-1] = (g_q[1:] != g_q[:-1]) | (g_r[1:] != g_r[:-1])
        return g_q[last], g_r[last], g_d[last]

    def _batch_hamming_identity(
        self,
        reads: ReadSet,
        abs_q_start: np.ndarray,
        abs_r_start: np.ndarray,
        length: np.ndarray,
    ) -> np.ndarray:
        """Ungapped identity of many spans in one flat numpy pass.

        Gathers both sides of every span into two flat arrays via the
        CSR offsets (through :meth:`ReadSet.gather_bases`, so a
        shard-backed set serves the gather per shard), compares
        elementwise, and segment-sums the matches with a
        cumulative-sum difference (no ``reduceat`` dtype traps).
        """
        total = int(length.sum())
        seg_starts = np.cumsum(length) - length
        within = np.arange(total, dtype=np.int64) - np.repeat(seg_starts, length)
        q_flat = np.repeat(abs_q_start, length) + within
        r_flat = np.repeat(abs_r_start, length) + within
        eq = reads.gather_bases(q_flat) == reads.gather_bases(r_flat)
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
        short spans are dropped, and — for the ``ungapped`` method —
        every surviving span's Hamming identity is evaluated in one
        numpy pass.  ``banded_nw`` falls back to per-candidate dynamic
        programming on the batch-computed spans.
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

        abs_q = reads.offsets[cand_q] + q_start
        abs_r = reads.offsets[cand_r] + r_start
        if cfg.method == "ungapped":
            identity = self._batch_hamming_identity(reads, abs_q, abs_r, length)
            accepted = identity >= cfg.min_identity
        else:
            identity = np.empty(length.size, dtype=np.float64)
            aln_length = np.empty(length.size, dtype=np.int64)
            for c, (lo_q, lo_r, ln) in enumerate(
                zip(abs_q.tolist(), abs_r.tolist(), length.tolist())
            ):
                result = banded_align(
                    reads.base_span(lo_q, ln),
                    reads.base_span(lo_r, ln),
                    band=cfg.band,
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
        query_batch=None,
    ) -> tuple[PackedOverlaps, int]:
        """One work unit in columnar form: (packed overlaps, candidates).

        This is the multiprocess wire format — seven flat arrays
        instead of thousands of :class:`Overlap` objects.  ``index``
        and ``query_batch`` optionally supply a prebuilt
        reference-subset index / query-subset k-mer batch so drivers
        that touch one subset in several work units prepare it only
        once.
        """
        cand_q, cand_r, cand_d = self._pair_candidates_vectorized(
            reads, query_indices, ref_indices, same_subset,
            index=index, query_batch=query_batch,
        )
        if cand_q.size == 0:
            return PackedOverlaps.empty(), 0
        return self._verify_batch(reads, cand_q, cand_r, cand_d), int(cand_q.size)

    # -- public API ---------------------------------------------------------

    def _build_index(self, reads: ReadSet, ref_indices: np.ndarray):
        if self.config.index == "suffix_array":
            from repro.align.sa_index import SuffixArrayReadIndex

            return SuffixArrayReadIndex(reads, self.config.k, ref_indices)
        return KmerIndex(reads, self.config.k, ref_indices)

    def _query_batch(self, reads: ReadSet, query_indices: np.ndarray):
        """The query side of a work unit, prepared for repeated lookups."""
        q_idx = np.asarray(query_indices, dtype=np.int64)
        vals, kmer_read, kmer_off = reads.kmer_table(self.config.k, q_idx)
        return vals, kmer_read, kmer_off, compress_queries(vals)

    def _pair_with_stats(
        self,
        reads: ReadSet,
        query_indices: np.ndarray,
        ref_indices: np.ndarray,
        same_subset: bool,
        index=None,
        query_batch=None,
    ) -> tuple[list[Overlap], int]:
        packed, n_candidates = self.overlap_subset_pair_packed(
            reads, query_indices, ref_indices, same_subset,
            index=index, query_batch=query_batch,
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

    def find_overlaps(self, reads: ReadSet) -> list[Overlap]:
        """All pairwise overlaps of a ReadSet (serial over subset pairs).

        Reference-subset indexes are built once and reused across the
        work units that share them (subset ``j`` serves ``j + 1``
        pairs).
        """
        subsets = reads.split(self.config.n_subsets)
        overlaps: list[Overlap] = []
        n_candidates = 0
        ref_indexes: dict[int, object] = {}
        query_batches: dict[int, tuple] = {}
        for i, j in subset_pairs(len(subsets)):
            index = ref_indexes.get(j)
            if index is None:
                index = ref_indexes[j] = self._build_index(reads, subsets[j])
            batch = query_batches.get(i)
            if batch is None:
                batch = query_batches[i] = self._query_batch(reads, subsets[i])
            part, nc = self._pair_with_stats(
                reads, subsets[i], subsets[j], same_subset=(i == j),
                index=index, query_batch=batch,
            )
            overlaps.extend(part)
            n_candidates += nc
        self.last_candidates = n_candidates
        return overlaps

    def find_overlaps_processes(
        self, reads: ReadSet, n_workers: int
    ) -> list[Overlap]:
        """All pairwise overlaps using real OS processes (paper §II-B).

        Subset pairs are farmed out to a ``ProcessPoolExecutor`` with
        ``n_workers`` workers, assigned largest-first so big work units
        start early.  Result-identical (including list order) to
        :meth:`find_overlaps`.
        """
        from repro.parallel.executor import run_subset_pairs

        overlaps, stats = run_subset_pairs(self.config, reads, n_workers)
        self.last_candidates = stats.candidates
        return overlaps

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
        query_batches: dict[int, tuple] = {}
        with comm.timed():
            for task, (i, j) in enumerate(pairs):
                if owner[task] != comm.rank:
                    continue
                index = ref_indexes.get(j)
                if index is None:
                    index = ref_indexes[j] = self._build_index(reads, subsets[j])
                batch = query_batches.get(i)
                if batch is None:
                    batch = query_batches[i] = self._query_batch(reads, subsets[i])
                local.extend(
                    self._pair_with_stats(
                        reads, subsets[i], subsets[j], same_subset=(i == j),
                        index=index, query_batch=batch,
                    )[0]
                )
        gathered = comm.gather(local, root=0)
        merged = None
        if comm.rank == 0:
            merged = [ov for part in gathered for ov in part]
        return comm.bcast(merged, root=0)
