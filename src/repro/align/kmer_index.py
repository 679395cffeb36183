"""Sorted k-mer index over a ReadSet.

This is the depth-k truncation of the reference suffix array: all
packed k-mers of all reference reads, sorted, with parallel arrays
giving the read each k-mer came from and its offset within that read.
The build is one bulk :meth:`~repro.io.readset.ReadSet.kmer_table` call
(cache-backed, no per-read Python loop) plus a stable sort.  Hits are
handed out as *ranges of index rows* — every occurrence of one k-mer is
one contiguous run — so a caller expands only as many as it wants to
hold: :meth:`KmerIndex.hit_ranges` finds the run of each query k-mer
with two ``np.searchsorted`` calls, and :meth:`KmerIndex.self_join`
reads the runs of the index's own windows straight off the sort, with
no search at all.  All index arrays are ``int64`` on every platform.
"""

from __future__ import annotations

import numpy as np

from repro.graph.sparse import ragged_positions
from repro.io.readset import ReadSet

__all__ = ["KmerIndex"]

#: batch size above which lookups binary-search unique query values
#: only.  High-coverage query batches repeat each genomic k-mer many
#: times; deduplicating first makes the searchsorted cost scale with
#: distinct k-mers, not total k-mers.
_UNIQUE_LOOKUP_MIN = 2048


class KmerIndex:
    """Exact k-mer lookup over the reads of a ReadSet (or a subset)."""

    def __init__(self, reads: ReadSet, k: int, read_indices: np.ndarray | None = None) -> None:
        if k < 1:
            raise ValueError("k must be positive")
        self.k = k
        self.reads = reads
        if read_indices is None:
            read_indices = np.arange(len(reads), dtype=np.int64)
        self.read_indices = np.asarray(read_indices, dtype=np.int64)

        vals, read_ids, offsets = reads.kmer_table(k, self.read_indices)
        valid = vals >= 0
        if not valid.all():
            vals, read_ids, offsets = vals[valid], read_ids[valid], offsets[valid]
        #: index row -> valid window in ``read_indices`` order (the
        #: stable sort; equal k-mers keep read order, then offset order).
        self._order = np.argsort(vals, kind="stable")
        self.kmers = vals[self._order]
        self.kmer_reads = read_ids[self._order]
        self.kmer_offsets = offsets[self._order]

    def __len__(self) -> int:
        return int(self.kmers.size)

    def hit_ranges(
        self, query_vals: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Each query k-mer's occurrences as a run of index rows.

        Returns ``(lo, counts, row_reads, row_offsets)``: query k-mer
        ``i`` occurs at rows ``lo[i] .. lo[i] + counts[i]`` of the two
        row tables (``counts[i] == 0`` for invalid entries < 0 and for
        absent k-mers).  Nothing is expanded.
        """
        query_vals = np.asarray(query_vals, dtype=np.int64)
        lo = np.zeros(query_vals.size, dtype=np.int64)
        counts = np.zeros(query_vals.size, dtype=np.int64)
        valid = np.flatnonzero(query_vals >= 0)
        if valid.size and self.kmers.size:
            vals = query_vals[valid]
            inverse = None
            if vals.size >= _UNIQUE_LOOKUP_MIN:
                vals, inverse = np.unique(vals, return_inverse=True)
            left = np.searchsorted(self.kmers, vals, side="left")
            run = np.searchsorted(self.kmers, vals, side="right") - left
            if inverse is not None:
                left, run = left[inverse], run[inverse]
            lo[valid] = left
            counts[valid] = run
        return lo, counts, self.kmer_reads, self.kmer_offsets

    def self_join(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The index's own windows joined against the index, upper half.

        Returns ``(win_reads, win_offsets, lo, counts, row_reads,
        row_offsets)``: the valid windows in ``read_indices`` order and,
        as in :meth:`hit_ranges`, each one's run of rows — here the rows
        *after* the window's own row inside its equal-k-mer run.  The
        stable sort keeps a run in read order, so when ``read_indices``
        ascends these are exactly the occurrences in reads ``>=`` the
        window's read (``==`` only for a k-mer repeated inside one
        read): the window never meets itself or the mirrored pair, and
        nothing is searched.
        """
        n = self.kmers.size
        rank = np.empty(n, dtype=np.int64)
        rank[self._order] = np.arange(n, dtype=np.int64)
        last = np.ones(n, dtype=bool)
        last[:-1] = self.kmers[1:] != self.kmers[:-1]
        run_ends = np.flatnonzero(last) + 1
        run_end = np.repeat(run_ends, np.diff(run_ends, prepend=0))
        lo = rank + 1
        return (
            self.kmer_reads[rank],
            self.kmer_offsets[rank],
            lo,
            run_end[rank] - lo,
            self.kmer_reads,
            self.kmer_offsets,
        )

    def lookup(self, query_vals: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Find all occurrences of each query k-mer.

        Returns ``(query_pos, hit_reads, hit_offsets)``: parallel
        ``int64`` arrays, one row per (query k-mer, reference
        occurrence) pair; ``query_pos`` indexes into ``query_vals``
        (invalid entries < 0 are skipped).
        """
        lo, counts, row_reads, row_offsets = self.hit_ranges(query_vals)
        rows = ragged_positions(lo, counts)
        query_pos = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
        return query_pos, row_reads[rows], row_offsets[rows]

    def hit_counts(self, query_vals: np.ndarray, exclude_read: int | None = None) -> dict[int, int]:
        """Number of shared k-mers per reference read (diagnostic helper)."""
        _, hit_reads, _ = self.lookup(query_vals)
        if exclude_read is not None:
            hit_reads = hit_reads[hit_reads != exclude_read]
        uniq, counts = np.unique(hit_reads, return_counts=True)
        return dict(zip(uniq.tolist(), counts.tolist()))
