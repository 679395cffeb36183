"""The sorted canonical k-mer index with a dense class-boundary table:
the oracle of :class:`repro.align.kmer_index.KmerIndex`.

Same build and same contract (``read_indices``, ``seed_ranges``,
``self_join``, ``lookup``), but every distinct canonical k-mer carries
a row of 26 boundaries — the first index row of each of the 25 flank
classes and the run's end — and every reader indexes that ``(distinct
k-mers, 26)`` table.  The production index keeps only the sub-run
boundaries the sort draws; the two must answer array for array.  The
classes themselves are the production's (``_canonical_windows``);
``tests/align/test_kmer_index.py`` holds them to the strings.
"""

from __future__ import annotations

import numpy as np

from repro.align.kmer_index import _canonical, _canonical_windows, _has_bottom
from repro.io.readset import ReadSet, ragged_positions
from repro.sequence.kmers import stable_order

__all__ = ["BoundsKmerIndex"]

#: flank classes per k-mer.
_CLASSES = 25


class BoundsKmerIndex:
    """The k-mer index with a dense class-boundary table per k-mer."""

    def __init__(self, reads: ReadSet, k: int, read_indices: np.ndarray | None = None) -> None:
        if k < 1:
            raise ValueError("k must be positive")
        self.k = k
        self.reads = reads
        if read_indices is None:
            read_indices = np.arange(reads.n_forward, dtype=np.int64)
        self.read_indices = np.asarray(read_indices, dtype=np.int64)

        vals, read_ids, offsets = reads.kmer_table(k, self.read_indices)
        valid = vals >= 0
        vals, strands, classes = _canonical_windows(vals, offsets, k)
        vals, strands, classes = vals[valid], strands[valid], classes[valid]
        read_ids, offsets = read_ids[valid], offsets[valid]
        # Equal (k-mer, class) keep table order: read, then offset.
        order = np.lexsort((classes, vals))
        #: index row -> the read, the offset and the strand of its window.
        self.kmer_reads = read_ids[order]
        self.kmer_offsets = offsets[order]
        self.kmer_strands = strands[order]
        vals, classes = vals[order], classes[order]
        # First row of every (k-mer, class) sub-run; everything below is
        # per sub-run or per run, not per window.
        first = np.ones(vals.size, dtype=bool)
        np.not_equal(vals[1:], vals[:-1], out=first[1:])
        first[1:] |= classes[1:] != classes[:-1]
        sub_lo = np.flatnonzero(first)
        sub_kmers = vals[sub_lo]
        run_first = np.ones(sub_lo.size, dtype=bool)
        np.not_equal(sub_kmers[1:], sub_kmers[:-1], out=run_first[1:])
        #: the distinct canonical k-mers, ascending; run ``r`` is all
        #: rows of ``run_kmers[r]``.
        self.run_kmers = sub_kmers[run_first]
        bounds = np.full((self.run_kmers.size, _CLASSES + 1), len(self), dtype=np.int64)
        bounds[np.cumsum(run_first) - 1, classes[sub_lo]] = sub_lo
        bounds[:-1, -1] = sub_lo[run_first][1:]
        #: ``bounds[r, c]``: first row of run ``r`` whose class is
        #: ``>= c`` (``bounds[r, 25]`` is the run's end), so class ``c``
        #: of run ``r`` is rows ``bounds[r, c] .. bounds[r, c + 1]`` —
        #: an absent class starts, and ends, where the next one starts.
        self.bounds = np.ascontiguousarray(
            np.minimum.accumulate(bounds[:, ::-1], axis=1)[:, ::-1]
        )

    def __len__(self) -> int:
        return int(self.kmer_reads.size)

    def _runs(self, query_vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(found, run)``: positions in ``query_vals`` (canonical
        k-mers) of those the index holds (invalid entries < 0 are
        absent), ascending, and the run of each.

        The needles are sorted first, so the binary search walks the
        distinct k-mers front to back instead of jumping through them
        per query window.
        """
        runs = np.full(query_vals.size, -1, dtype=np.int64)
        valid = np.flatnonzero(query_vals >= 0)
        if valid.size and self.run_kmers.size:
            valid = valid[stable_order(query_vals[valid])]
            vals = query_vals[valid]
            at = np.minimum(np.searchsorted(self.run_kmers, vals), self.run_kmers.size - 1)
            hit = self.run_kmers[at] == vals
            runs[valid[hit]] = at[hit]
        found = np.flatnonzero(runs >= 0)
        return found, runs[found]

    def _class_ranges(
        self, runs: np.ndarray, classes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Row ranges of the left-maximal partners of windows of the
        given runs and classes: the run before and after the window's
        own class, or — ⊥ — the whole run (which holds the window
        itself when it is indexed).

        Returns ``(which, lo, counts)``, one entry per non-empty range:
        ``which`` indexes the arguments and ascends (a window with
        partners on both sides appears twice in a row).
        """
        bottom = _has_bottom(classes)
        run_hi = self.bounds[runs, -1]
        own_lo = np.where(bottom, run_hi, self.bounds[runs, classes])
        own_hi = np.where(bottom, run_hi, self.bounds[runs, classes + 1])
        lo = np.stack([self.bounds[runs, 0], own_hi], axis=1).ravel()
        counts = np.stack([own_lo, run_hi], axis=1).ravel() - lo
        some = np.flatnonzero(counts)
        return some >> 1, lo[some], counts[some]

    def seed_ranges(self, query_vals: np.ndarray, query_offsets: np.ndarray) -> tuple[np.ndarray, ...]:
        """The seeds of a ``kmer_table`` of query windows, as
        :meth:`KmerIndex.seed_ranges`."""
        query_vals = np.asarray(query_vals, dtype=np.int64)
        canon, strands, classes = _canonical_windows(query_vals, query_offsets, self.k)
        found, runs = self._runs(canon)
        which, lo, counts = self._class_ranges(runs, classes[found])
        windows = found[which]
        return (
            windows, strands[windows], lo, counts, self.kmer_reads, self.kmer_offsets, self.kmer_strands
        )

    def self_join(self) -> tuple[np.ndarray, ...]:
        """The index's own windows joined against the index, as
        :meth:`KmerIndex.self_join`."""
        sizes = np.diff(self.bounds, axis=1)
        runs, classes = np.nonzero(sizes)  # the sub-runs, in row order
        sub, lo, counts = self._class_ranges(runs, classes)
        runs, classes = runs[sub], classes[sub]
        size = sizes[runs, classes]
        rows = ragged_positions(self.bounds[runs, classes], size)
        win_reads, win_offsets = self.kmer_reads[rows], self.kmer_offsets[rows]
        stride = int(self.kmer_offsets.max(initial=0)) + 1
        order = stable_order(win_reads * stride + win_offsets)
        return (
            win_reads[order],
            win_offsets[order],
            self.kmer_strands[rows][order],
            np.repeat(lo, size)[order],
            np.repeat(counts, size)[order],
            self.kmer_reads,
            self.kmer_offsets,
            self.kmer_strands,
        )

    def lookup(self, query_vals: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every occurrence of each query k-mer on the indexed reads'
        own strand, as :meth:`KmerIndex.lookup`."""
        query_vals = np.asarray(query_vals, dtype=np.int64)
        canon, strands = _canonical(query_vals, self.k)
        lo = np.zeros(query_vals.size, dtype=np.int64)
        counts = np.zeros(query_vals.size, dtype=np.int64)
        found, runs = self._runs(canon)
        lo[found] = self.bounds[runs, 0]
        counts[found] = self.bounds[runs, -1] - lo[found]
        rows = ragged_positions(lo, counts)
        query_pos = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
        same = self.kmer_strands[rows] == strands[query_pos]
        return query_pos[same], self.kmer_reads[rows[same]], self.kmer_offsets[rows[same]]
