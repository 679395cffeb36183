"""Sorted canonical k-mer index over a ReadSet, handing out *maximal seeds*.

Every valid k-mer window of the indexed reads is keyed by its
*canonical* k-mer — the smaller of the window and its reverse
complement — with a strand code: 0 when the window is the canonical
k-mer, 1 when its reverse complement is, 2 when both are (a palindrome).
One row per window of the reads themselves therefore stands for the
windows of their reverse complements too: two windows of one canonical
k-mer are a hit on the same strand when their codes agree, and a hit
of the one read against the other's reverse complement when they
differ (a palindrome is both).  The index of ``2n`` reads and their
mates holds the ``n`` forward reads' windows.

The rows are sorted by ``(k-mer, class, read, offset)``.  The *class*
of a window is the pair of bases around it read in the canonical
k-mer's orientation — the one in front (0–3) and the one behind — with
⊥ (4) for a missing or ``N`` base; a window on strand 1 reads its
flanks swapped and complemented, and a palindrome's class is ⊥⊥.  It is
read off the :meth:`~repro.io.readset.ReadSet.kmer_table` output
itself, so the build is one bulk table call plus one sort
(:func:`~repro.sequence.kmers.stable_sort`).

Why the class: a run of ``m`` consecutive matching windows on one
diagonal of a read pair is one maximal exact match, and a caller that
only wants to know *which* ``(query, ref, diagonal)`` triples share a
k-mer needs one row of it, not ``m``.  Two windows of equal class
extend to a hit on both sides, so neither end of the match is there;
every other pair — the classes differ, or either holds a ⊥ — is a
*seed*.  The match's leftmost and rightmost windows are seeds in
either orientation, which is what makes the seeds strand-proof: the
same match read on the reverse strands has its ends swapped.  Inside
one k-mer's run of rows the classes are contiguous sub-runs, so the
seed partners of a window are two row ranges (the run before and after
its own class), and of a window with a ⊥ the whole run.
:meth:`KmerIndex.seed_ranges` finds those ranges for query windows with
one binary search over the *distinct* k-mers and one over the
sub-runs; :meth:`KmerIndex.self_join` reads them for the index's own
windows off the sort, with no search at all.  :meth:`KmerIndex.lookup`
still answers with every occurrence on the query's own strand.  Ranges
are handed out unexpanded, so a caller expands only as many rows as it
wants to hold.

The sorted array is the whole index: after the build it holds the row
tables (read, forward offset, strand) and, per ``(k-mer, class)``
sub-run and per run, its first row — the boundaries the sort already
drew; the read and offset tables are ``int64`` on every platform.
"""

from __future__ import annotations

import numpy as np

from repro.io.readset import ReadSet, ragged_positions
from repro.sequence.kmers import revcomp_kmer_code, stable_sort

__all__ = ["KmerIndex"]

#: class digit of a missing flank base.
_BOTTOM = 4
#: the base complements, ⊥ kept: a flank read on the other strand.
_COMPLEMENT = np.array([3, 2, 1, 0, _BOTTOM], dtype=np.uint8)
#: ``(front, behind)`` flank classes, 5 x 5.
_CLASSES = 25
#: strand code of a palindromic window (equal to its reverse complement).
PALINDROME = 2
#: ``[strand, front * 5 + behind]`` -> the class in the canonical
#: orientation: as is on strand 0, flanks swapped and complemented on
#: strand 1, ⊥⊥ for a palindrome.
_ORIENTED = np.array(
    [
        np.arange(_CLASSES),
        _COMPLEMENT[np.arange(_CLASSES) % 5] * 5 + _COMPLEMENT[np.arange(_CLASSES) // 5],
        np.full(_CLASSES, _CLASSES - 1),
    ],
    dtype=np.uint8,
)


def _canonical(vals: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """``(canonical k-mer, strand)`` of packed windows (invalid ones
    stay negative)."""
    rc = revcomp_kmer_code(vals, k)
    strands = (rc < vals).view(np.uint8)
    strands[rc == vals] = PALINDROME
    np.minimum(rc, vals, out=rc)
    return rc, strands


def _canonical_windows(
    vals: np.ndarray, offsets: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(canonical k-mer, strand, class)`` of every window of a
    ``kmer_table`` (its value and offset columns, whole).

    Window ``i - 1`` of the table is the same read's previous window
    whenever ``offsets[i] > 0``; its leading base is the one in front of
    window ``i``, and window ``i + 1``'s trailing base the one behind.
    A neighbour is invalid only because of that base when window ``i``
    itself is valid (invalid windows get a class nobody reads).
    """
    canon, strands = _canonical(vals, k)
    front = np.full(vals.size, _BOTTOM, dtype=np.uint8)
    behind = front.copy()
    same_read = offsets[1:] > 0
    np.right_shift(
        vals[:-1], 2 * (k - 1), out=front[1:], where=same_read & (vals[:-1] >= 0), casting="unsafe"
    )
    np.bitwise_and(vals[1:], 3, out=behind[:-1], where=same_read & (vals[1:] >= 0), casting="unsafe")
    front *= 5
    front += behind
    # On strand 1 the canonical k-mer reads the window backwards.
    return canon, strands, _ORIENTED[strands, front]


def _has_bottom(classes: np.ndarray) -> np.ndarray:
    """Whether a class holds a ⊥ flank (its window pairs with its whole run)."""
    return (classes >= _BOTTOM * 5) | (classes % 5 == _BOTTOM)


def _starts(*cols: np.ndarray) -> np.ndarray:
    """First position of every run of equal rows of the sorted columns."""
    first = np.ones(cols[0].size, dtype=bool)
    np.not_equal(cols[0][1:], cols[0][:-1], out=first[1:])
    for col in cols[1:]:
        first[1:] |= col[1:] != col[:-1]
    return np.flatnonzero(first)


class KmerIndex:
    """Canonical k-mer lookup over the reads of a ReadSet (or a subset)
    and their reverse complements.

    ``read_indices`` defaults to the set's forward reads
    (:attr:`~repro.io.readset.ReadSet.n_forward`): the mates of a set
    built with reverse complements are the rows' other strand.
    """

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
        if not valid.all():
            vals, strands, classes = vals[valid], strands[valid], classes[valid]
            read_ids, offsets = read_ids[valid], offsets[valid]
        del valid
        # Equal (k-mer, class) keep table order: read, then offset.
        if _CLASSES << 2 * k <= 1 << 63:  # else 4**k * 25 overflows
            vals *= _CLASSES
            vals += classes
            del classes
            keys, order = stable_sort(vals)
            del vals
            sub_lo = _starts(keys)
            sub_kmers, sub_classes = np.divmod(keys[sub_lo], _CLASSES)
            del keys
        else:
            order = np.lexsort((classes, vals))
            vals, classes = vals[order], classes[order]
            sub_lo = _starts(vals, classes)
            sub_kmers, sub_classes = vals[sub_lo], classes[sub_lo]
            del vals, classes
        #: index row -> the read, the offset and the strand of its window.
        self.kmer_reads = read_ids[order]
        del read_ids
        self.kmer_offsets = offsets[order]
        del offsets
        self.kmer_strands = strands[order]
        del strands, order
        run_first = np.ones(sub_lo.size, dtype=bool)
        np.not_equal(sub_kmers[1:], sub_kmers[:-1], out=run_first[1:])
        #: the distinct canonical k-mers, ascending; run ``r`` is all
        #: rows of ``run_kmers[r]``, rows ``run_lo[r] .. run_lo[r + 1]``.
        self.run_kmers = sub_kmers[run_first]
        self.run_lo = np.append(sub_lo[run_first], len(self))
        #: sub-run ``s`` — the rows of one k-mer and one class — is rows
        #: ``sub_lo[s] .. sub_lo[s + 1]`` of run ``sub_key[s] // 25`` and
        #: class ``sub_key[s] % 25``; the keys ascend, so one binary
        #: search finds the first row of a run whose class is ``>= c``.
        self.sub_lo = np.append(sub_lo, len(self))
        self.sub_key = (np.cumsum(run_first) - 1) * _CLASSES + sub_classes

    def __len__(self) -> int:
        return int(self.kmer_reads.size)

    def _runs(self, canon: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(pos, run)``: positions in ``canon`` of the canonical
        k-mers the index holds (invalid entries < 0 are absent) and the
        run of each, in k-mer order — ``run`` ascends.

        The needles are sorted first, so the binary search walks the
        distinct k-mers front to back instead of jumping through them
        per query window, and so does every gather by ``run`` after it.
        """
        pos = np.flatnonzero(canon >= 0)
        if not (pos.size and self.run_kmers.size):
            return pos[:0], pos[:0]
        vals, order = stable_sort(canon[pos])
        pos = pos[order]
        runs = np.minimum(np.searchsorted(self.run_kmers, vals), self.run_kmers.size - 1)
        hit = self.run_kmers[runs] == vals
        return pos[hit], runs[hit]

    def _class_ranges(
        self, runs: np.ndarray, own_lo: np.ndarray, own_hi: np.ndarray, bottom: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Row ranges of the seed partners of windows of the given runs
        whose own class is rows ``own_lo .. own_hi``: the run before and
        after those rows, or — a ⊥ flank (``bottom``) — the whole run
        (which holds the window itself when it is indexed).

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

    def seed_ranges(self, query_vals: np.ndarray, query_offsets: np.ndarray) -> tuple[np.ndarray, ...]:
        """The seeds of a ``kmer_table`` of query windows.

        ``query_vals`` / ``query_offsets`` are the table's value and
        offset columns, whole (the classes are read off them).  Returns
        ``(windows, win_strands, lo, counts, row_reads, row_offsets,
        row_strands)``: one entry per non-empty row range, ``windows``
        naming its query window — ascending, a window with partners on
        both sides of its own class twice in a row — and
        ``win_strands`` its strand code; the range is rows ``lo[i] ..
        lo[i] + counts[i]`` of the three row tables.
        """
        query_vals = np.asarray(query_vals, dtype=np.int64)
        canon, strands, classes = _canonical_windows(query_vals, query_offsets, self.k)
        pos, runs = self._runs(canon)
        classes = classes[pos]
        # ``sub``: the first sub-run of the window's run with a class
        # >= the window's (else the next run's first), where the
        # window's own class starts; it ends one sub-run later when
        # ``sub`` is that class (``own``), and at once otherwise.
        key = runs * _CLASSES + classes
        sub = np.searchsorted(self.sub_key, key)
        own = self.sub_key[np.minimum(sub, self.sub_key.size - 1)] == key
        which, lo, counts = self._class_ranges(
            runs, self.sub_lo[sub], self.sub_lo[sub + own], _has_bottom(classes)
        )
        # back from k-mer order to window order, the range before the
        # window's class first.
        windows, order = stable_sort(pos[which >> 1] * 2 + (which & 1))
        windows >>= 1
        return (
            windows,
            strands[windows],
            lo[order],
            counts[order],
            self.kmer_reads,
            self.kmer_offsets,
            self.kmer_strands,
        )

    def self_join(self) -> tuple[np.ndarray, ...]:
        """The index's own windows joined against the index.

        Returns ``(win_reads, win_offsets, win_strands, lo, counts,
        row_reads, row_offsets, row_strands)``: as :meth:`seed_ranges`
        of the index's own windows, with each entry's window named by
        its read and offset — but read off the sort, nothing is
        searched, and the ranges are worked out once per ``(k-mer,
        class)`` sub-run and expanded to windows only where they are not
        empty.  Every seed pair of windows appears from both sides (a
        caller wanting each unordered read pair once keeps one side),
        and a window with a ⊥ flank has its own row in its range.
        Entries come in ``(read id, offset)`` order, which is window
        order when ``read_indices`` ascends.
        """
        runs, classes = np.divmod(self.sub_key, _CLASSES)
        # A sub-run alone in its run has no partner, unless it has a ⊥.
        shared = _has_bottom(classes)
        shared[1:] |= runs[1:] == runs[:-1]
        shared[:-1] |= runs[:-1] == runs[1:]
        sub = np.flatnonzero(shared)
        which, lo, counts = self._class_ranges(
            runs[sub], self.sub_lo[sub], self.sub_lo[sub + 1], _has_bottom(classes[sub])
        )
        sub = sub[which >> 1]
        size = np.diff(self.sub_lo)[sub]
        rows = ragged_positions(self.sub_lo[sub], size)
        shift = int(self.kmer_offsets.max(initial=0)).bit_length()
        keys, order = stable_sort((self.kmer_reads[rows] << shift) | self.kmer_offsets[rows])
        return (
            keys >> shift,
            keys & ((1 << shift) - 1),
            self.kmer_strands[rows[order]],
            np.repeat(lo, size)[order],
            np.repeat(counts, size)[order],
            self.kmer_reads,
            self.kmer_offsets,
            self.kmer_strands,
        )

    def lookup(self, query_vals: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Find every occurrence of each query k-mer on the indexed
        reads' own strand.

        Returns ``(query_pos, hit_reads, hit_offsets)``: parallel
        ``int64`` arrays, one row per (query k-mer, reference
        occurrence) pair, in query order; ``query_pos`` indexes into
        ``query_vals`` (invalid entries < 0 are skipped).
        """
        query_vals = np.asarray(query_vals, dtype=np.int64)
        canon, strands = _canonical(query_vals, self.k)
        lo = np.zeros(query_vals.size, dtype=np.int64)
        counts = np.zeros(query_vals.size, dtype=np.int64)
        pos, runs = self._runs(canon)
        lo[pos] = self.run_lo[runs]
        counts[pos] = self.run_lo[runs + 1] - lo[pos]
        rows = ragged_positions(lo, counts)
        query_pos = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
        same = self.kmer_strands[rows] == strands[query_pos]
        query_pos, rows = query_pos[same], rows[same]
        return query_pos, self.kmer_reads[rows], self.kmer_offsets[rows]
