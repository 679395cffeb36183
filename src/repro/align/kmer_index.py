"""Sorted k-mer index over a ReadSet, handing out *left-maximal seeds*.

This is the depth-k truncation of the reference suffix array: every
valid k-mer window of the reference reads, sorted by ``(k-mer,
predecessor class, read, offset)``, with two row tables giving the read
and the offset of each index row.  The *predecessor class* of a window
is the base in front of it (0–3), or ⊥ (4) when there is none — the
window is the first of its read, or that base is ``N``.  It is read off
the :meth:`~repro.io.readset.ReadSet.kmer_table` output itself, so the
build is still one bulk table call plus one sort
(:func:`~repro.sequence.kmers.stable_sort`), which hands back the sorted
keys with the rows, so only the two row tables are gathered.

Why the class: a run of ``m`` consecutive matching windows on one
diagonal of a read pair is one maximal exact match, and a caller that
only wants to know *which* ``(query, ref, diagonal)`` triples share a
k-mer needs one row of it, not ``m``.  The hit ``(q, o) ~ (r, p)`` is
**left-maximal** when ``(o - 1, p - 1)`` is not a hit as well, i.e. when
the two windows' classes differ or either is ⊥ — and inside one k-mer's
run of index rows the classes are contiguous sub-runs, so the
left-maximal partners of a window of class ``c < 4`` are two row ranges
(the run before and after its own class), and of a ⊥ window the whole
run.  :meth:`KmerIndex.seed_ranges` finds those ranges for query
windows with one binary search over the *distinct* k-mers and one over
the sub-runs;
:meth:`KmerIndex.self_join` reads them for the index's own windows off
the sort, with no search at all.  :meth:`KmerIndex.hit_ranges` /
:meth:`KmerIndex.lookup` still answer with every occurrence.  Ranges are
handed out unexpanded, so a caller expands only as many rows as it
wants to hold.

The sorted array is the whole index: after the build it holds the two
row tables (window-sized) and, per ``(k-mer, class)`` sub-run and per
run, its first row — the boundaries the sort already drew, with no
per-k-mer table of classes; all arrays are ``int64`` on every platform.
"""

from __future__ import annotations

import numpy as np

from repro.io.readset import ReadSet, ragged_positions
from repro.sequence.kmers import max_k_for_dtype, stable_sort

__all__ = ["KmerIndex"]

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
    np.right_shift(
        vals[:-1], 2 * (k - 1), out=classes[1:], where=has_base, casting="unsafe"
    )
    return classes


def _starts(*cols: np.ndarray) -> np.ndarray:
    """First position of every run of equal rows of the sorted columns."""
    first = np.ones(cols[0].size, dtype=bool)
    np.not_equal(cols[0][1:], cols[0][:-1], out=first[1:])
    for col in cols[1:]:
        first[1:] |= col[1:] != col[:-1]
    return np.flatnonzero(first)


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
        classes = _predecessor_classes(vals, offsets, k)
        valid = vals >= 0
        if not valid.all():
            vals, classes = vals[valid], classes[valid]
            read_ids, offsets = read_ids[valid], offsets[valid]
        del valid
        # Equal (k-mer, class) keep table order: read, then offset.
        if k < max_k_for_dtype():  # else 4**k * 5 overflows
            vals = vals * 5
            vals += classes
            del classes
            keys, order = stable_sort(vals)
            del vals
            sub_lo = _starts(keys)
            sub_kmers, sub_classes = np.divmod(keys[sub_lo], 5)
            del keys
        else:
            order = np.lexsort((classes, vals))
            vals, classes = vals[order], classes[order]
            sub_lo = _starts(vals, classes)
            sub_kmers, sub_classes = vals[sub_lo], classes[sub_lo]
            del vals, classes
        #: index row -> the read and the offset of its window.
        self.kmer_reads = read_ids[order]
        del read_ids
        self.kmer_offsets = offsets[order]
        del offsets, order
        run_first = np.ones(sub_lo.size, dtype=bool)
        np.not_equal(sub_kmers[1:], sub_kmers[:-1], out=run_first[1:])
        #: the distinct k-mers, ascending; run ``r`` is all rows of
        #: ``run_kmers[r]``, rows ``run_lo[r] .. run_lo[r + 1]``.
        self.run_kmers = sub_kmers[run_first]
        self.run_lo = np.append(sub_lo[run_first], len(self))
        #: sub-run ``s`` — the rows of one k-mer and one class — is rows
        #: ``sub_lo[s] .. sub_lo[s + 1]`` of run ``sub_key[s] // 5`` and
        #: class ``sub_key[s] % 5``; the keys ascend, so one binary
        #: search finds the first row of a run whose class is ``>= c``.
        self.sub_lo = np.append(sub_lo, len(self))
        self.sub_key = (np.cumsum(run_first) - 1) * 5 + sub_classes

    def __len__(self) -> int:
        return int(self.kmer_reads.size)

    def _runs(self, query_vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(pos, run)``: positions in ``query_vals`` of the k-mers the
        index holds (invalid entries < 0 are absent) and the run of
        each, in k-mer order — ``run`` ascends.

        The needles are sorted first, so the binary search walks the
        distinct k-mers front to back instead of jumping through them
        per query window, and so does every gather by ``run`` after it.
        """
        pos = np.flatnonzero(query_vals >= 0)
        if not (pos.size and self.run_kmers.size):
            return pos[:0], pos[:0]
        vals, order = stable_sort(query_vals[pos])
        pos = pos[order]
        runs = np.minimum(np.searchsorted(self.run_kmers, vals), self.run_kmers.size - 1)
        hit = self.run_kmers[runs] == vals
        return pos[hit], runs[hit]

    def _class_ranges(
        self, runs: np.ndarray, own_lo: np.ndarray, own_hi: np.ndarray, bottom: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Row ranges of the left-maximal partners of windows of the
        given runs whose own class is rows ``own_lo .. own_hi``: the
        run before and after those rows, or — ⊥ (``bottom``) — the
        whole run (which holds the window itself when it is indexed).

        Returns ``(which, lo, counts)``, one entry per non-empty range:
        ``which >> 1`` indexes the arguments and ``which`` ascends, its
        low bit 0 for the range before the class and 1 after it.
        """
        run_lo, run_hi = self.run_lo[runs], self.run_lo[runs + 1]
        own_lo = np.where(bottom, run_hi, own_lo)
        own_hi = np.where(bottom, run_hi, own_hi)
        lo = np.stack([run_lo, own_hi], axis=1).ravel()
        counts = np.stack([own_lo, run_hi], axis=1).ravel() - lo
        which = np.flatnonzero(counts)
        return which, lo[which], counts[which]

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
        pos, runs = self._runs(query_vals)
        lo[pos] = self.run_lo[runs]
        counts[pos] = self.run_lo[runs + 1] - lo[pos]
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
        pos, runs = self._runs(query_vals)
        classes = _predecessor_classes(query_vals, query_offsets, self.k)[pos]
        # ``sub``: the first sub-run of the window's run with a class
        # >= the window's (else the next run's first), where the
        # window's own class starts; it ends one sub-run later when
        # ``sub`` is that class (``own``), and at once otherwise.
        key = runs * 5 + classes
        sub = np.searchsorted(self.sub_key, key)
        own = self.sub_key[np.minimum(sub, self.sub_key.size - 1)] == key
        which, lo, counts = self._class_ranges(
            runs, self.sub_lo[sub], self.sub_lo[sub + own], classes == _BOTTOM
        )
        # back from k-mer order to window order, the range before the
        # window's class first.
        windows, order = stable_sort(pos[which >> 1] * 2 + (which & 1))
        return windows >> 1, lo[order], counts[order], self.kmer_reads, self.kmer_offsets

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
        runs, classes = np.divmod(self.sub_key, 5)
        # A sub-run alone in its run has no partner, unless it is ⊥.
        shared = classes == _BOTTOM
        shared[1:] |= runs[1:] == runs[:-1]
        shared[:-1] |= runs[:-1] == runs[1:]
        sub = np.flatnonzero(shared)
        which, lo, counts = self._class_ranges(
            runs[sub], self.sub_lo[sub], self.sub_lo[sub + 1], classes[sub] == _BOTTOM
        )
        sub = sub[which >> 1]
        size = np.diff(self.sub_lo)[sub]
        rows = ragged_positions(self.sub_lo[sub], size)
        shift = int(self.kmer_offsets.max(initial=0)).bit_length()
        keys, order = stable_sort((self.kmer_reads[rows] << shift) | self.kmer_offsets[rows])
        return (
            keys >> shift,
            keys & ((1 << shift) - 1),
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
