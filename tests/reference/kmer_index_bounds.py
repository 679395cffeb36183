"""The sorted k-mer index with a dense class-boundary table: the oracle
of :class:`repro.align.kmer_index.KmerIndex`.

Same build and same contract (``read_indices``, ``hit_ranges``,
``seed_ranges``, ``self_join``, ``lookup``), but every distinct k-mer
carries a row of six boundaries — the first index row of each
predecessor class and the run's end — and every reader indexes that
``(distinct k-mers, 6)`` table.  The production index keeps only the
sub-run boundaries the sort draws; the two must answer array for array.
"""

from __future__ import annotations

import numpy as np

from repro.io.readset import ReadSet, ragged_positions
from repro.sequence.kmers import max_k_for_dtype, stable_order

__all__ = ["BoundsKmerIndex"]

#: predecessor class of a window with no base in front of it.
_BOTTOM = 4


def _predecessor_classes(vals: np.ndarray, offsets: np.ndarray, k: int) -> np.ndarray:
    """Class of every window of a ``kmer_table``: the base before it,
    or ⊥ for a read's first window and after an ``N``.

    Window ``i - 1`` of the table is the same read's previous window
    whenever ``offsets[i] > 0``, and its leading base is the one in
    front of window ``i``; it is invalid only because of that base when
    window ``i`` itself is valid (invalid windows get a class nobody
    reads).
    """
    classes = np.full(vals.size, _BOTTOM, dtype=np.uint8)
    has_base = (offsets[1:] > 0) & (vals[:-1] >= 0)
    np.copyto(classes[1:], vals[:-1] >> (2 * (k - 1)), where=has_base, casting="unsafe")
    return classes


class BoundsKmerIndex:
    """The k-mer index with a dense class-boundary table per k-mer."""

    def __init__(self, reads: ReadSet, k: int, read_indices: np.ndarray | None = None) -> None:
        if k < 1:
            raise ValueError("k must be positive")
        self.k = k
        self.reads = reads
        if read_indices is None:
            read_indices = np.arange(len(reads), dtype=np.int64)
        self.read_indices = np.asarray(read_indices, dtype=np.int64)

        vals, read_ids, offsets = reads.kmer_table(k, self.read_indices)
        classes = _predecessor_classes(vals, offsets, k)
        valid = vals >= 0
        if not valid.all():
            vals, classes = vals[valid], classes[valid]
            read_ids, offsets = read_ids[valid], offsets[valid]
        # Equal (k-mer, class) keep table order: read, then offset.
        packs_class = k < max_k_for_dtype()  # else 4**k * 5 overflows
        if packs_class:
            vals = vals * 5 + classes
            order = stable_order(vals)
        else:
            order = np.lexsort((classes, vals))
        #: index row -> the read and the offset of its window.
        self.kmer_reads = read_ids[order]
        del read_ids
        self.kmer_offsets = offsets[order]
        del offsets
        vals, classes = vals[order], classes[order]
        del order
        # First row of every (k-mer, class) sub-run; everything below is
        # per sub-run or per run, not per window.
        first = np.ones(vals.size, dtype=bool)
        np.not_equal(vals[1:], vals[:-1], out=first[1:])
        first[1:] |= classes[1:] != classes[:-1]
        sub_lo = np.flatnonzero(first)
        sub_kmers = vals[sub_lo] // 5 if packs_class else vals[sub_lo]
        del vals, first
        run_first = np.ones(sub_lo.size, dtype=bool)
        np.not_equal(sub_kmers[1:], sub_kmers[:-1], out=run_first[1:])
        #: the distinct k-mers, ascending; run ``r`` is all rows of
        #: ``run_kmers[r]``.
        self.run_kmers = sub_kmers[run_first]
        bounds = np.full((self.run_kmers.size, _BOTTOM + 2), len(self), dtype=np.int64)
        bounds[np.cumsum(run_first) - 1, classes[sub_lo]] = sub_lo
        bounds[:-1, -1] = sub_lo[run_first][1:]
        #: ``bounds[r, c]``: first row of run ``r`` whose class is
        #: ``>= c`` (``bounds[r, 5]`` is the run's end), so class ``c``
        #: of run ``r`` is rows ``bounds[r, c] .. bounds[r, c + 1]`` —
        #: an absent class starts, and ends, where the next one starts.
        self.bounds = np.ascontiguousarray(
            np.minimum.accumulate(bounds[:, ::-1], axis=1)[:, ::-1]
        )

    def __len__(self) -> int:
        return int(self.kmer_reads.size)

    def _runs(self, query_vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(found, run)``: positions in ``query_vals`` of the k-mers
        the index holds (invalid entries < 0 are absent), ascending,
        and the run of each.

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
        own = np.minimum(classes, _BOTTOM - 1)
        bottom = classes == _BOTTOM
        run_hi = self.bounds[runs, -1]
        own_lo = np.where(bottom, run_hi, self.bounds[runs, own])
        own_hi = np.where(bottom, run_hi, self.bounds[runs, own + 1])
        lo = np.stack([self.bounds[runs, 0], own_hi], axis=1).ravel()
        counts = np.stack([own_lo, run_hi], axis=1).ravel() - lo
        some = np.flatnonzero(counts)
        return some >> 1, lo[some], counts[some]

    def hit_ranges(
        self, query_vals: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Each query k-mer's occurrences — all of them — as a run of
        index rows.

        Returns ``(lo, counts, row_reads, row_offsets)``: query k-mer
        ``i`` occurs at rows ``lo[i] .. lo[i] + counts[i]`` of the two
        row tables (``counts[i] == 0`` for invalid entries < 0 and for
        absent k-mers).  Nothing is expanded.
        """
        query_vals = np.asarray(query_vals, dtype=np.int64)
        lo = np.zeros(query_vals.size, dtype=np.int64)
        counts = np.zeros(query_vals.size, dtype=np.int64)
        found, runs = self._runs(query_vals)
        lo[found] = self.bounds[runs, 0]
        counts[found] = self.bounds[runs, -1] - lo[found]
        return lo, counts, self.kmer_reads, self.kmer_offsets

    def seed_ranges(
        self, query_vals: np.ndarray, query_offsets: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The left-maximal hits of a ``kmer_table`` of query windows.

        ``query_vals`` / ``query_offsets`` are the table's value and
        offset columns, whole (the classes are read off them).  Returns
        ``(windows, lo, counts, row_reads, row_offsets)``: one entry per
        non-empty row range, ``windows`` naming its query window —
        ascending, a window with partners on both sides of its own
        class twice in a row — and the range as in :meth:`hit_ranges`.
        """
        query_vals = np.asarray(query_vals, dtype=np.int64)
        classes = _predecessor_classes(query_vals, query_offsets, self.k)
        found, runs = self._runs(query_vals)
        which, lo, counts = self._class_ranges(runs, classes[found])
        return found[which], lo, counts, self.kmer_reads, self.kmer_offsets

    def self_join(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The index's own windows joined against the index.

        Returns ``(win_reads, win_offsets, lo, counts, row_reads,
        row_offsets)``: as :meth:`seed_ranges` of the index's own
        windows, with each entry's window named by its read and offset
        — but read off the sort, nothing is searched, and the ranges
        are worked out once per ``(k-mer, class)`` sub-run and expanded
        to windows only where they are not empty.  Every left-maximal
        pair of windows appears from both sides (a caller wanting each
        unordered read pair once keeps the rows whose read is larger),
        and a ⊥ window's range holds its own row.  Entries come in
        ``(read id, offset)`` order, which is window order when
        ``read_indices`` ascends.
        """
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
            np.repeat(lo, size)[order],
            np.repeat(counts, size)[order],
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
