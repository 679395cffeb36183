"""Suffix-array-backed reference read index (paper §II-B): the all-hits
second witness of the production kernel's seed-set invariance.

Focus indexes each reference read subset with a suffix array and
queries it with the query read's k-mers.  This is that exact structure
behind the seed interface of :class:`repro.align.kmer_index.KmerIndex`
(``read_indices``, ``seed_ranges``, ``self_join``, ``lookup``), except
that it answers with *every* hit where the production index hands out
the ends of maximal matches: each query window's own k-mer (strand 0,
the window's) and its reverse complement (strand 1, a hit on the other
read's mate) are searched.  Tests pass it to
``overlap_subset_pair_packed`` via ``index=``: the kernel must return
the same rows from either seed set.

Reference reads are concatenated with single ``N`` separators; since
queries never contain code 4, no match can span a read boundary.
"""

from __future__ import annotations

import numpy as np

from repro.io.readset import ReadSet
from repro.sequence.dna import N
from repro.sequence.kmers import revcomp_kmer_code, unpack_kmer
from tests.reference.suffix_array import SuffixArraySearcher

__all__ = ["SuffixArrayReadIndex"]


class SuffixArrayReadIndex:
    """Suffix-array k-mer lookup over (a subset of) a ReadSet."""

    def __init__(self, reads: ReadSet, k: int, read_indices: np.ndarray | None = None) -> None:
        if k < 1:
            raise ValueError("k must be positive")
        self.k = k
        self.reads = reads
        if read_indices is None:
            read_indices = np.arange(reads.n_forward, dtype=np.int64)
        self.read_indices = np.asarray(read_indices, dtype=np.int64)

        parts: list[np.ndarray] = []
        starts: list[int] = []
        pos = 0
        sep = np.array([N], dtype=np.uint8)
        for ridx in self.read_indices.tolist():
            codes = reads.codes_of(ridx)
            starts.append(pos)
            parts.append(codes)
            parts.append(sep)
            pos += codes.size + 1
        self.text = np.concatenate(parts) if parts else np.empty(0, dtype=np.uint8)
        #: concatenated-text start of each indexed read.
        self.read_starts = np.asarray(starts, dtype=np.int64)
        self.searcher = SuffixArraySearcher(self.text) if self.text.size else None

    def __len__(self) -> int:
        """Number of indexed k-mer positions (N-free windows)."""
        total = 0
        for ridx in self.read_indices.tolist():
            total += max(0, self.reads.length_of(int(ridx)) - self.k + 1)
        return total

    def _locate(self, text_positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Map text positions to (read id, offset within read)."""
        slot = np.searchsorted(self.read_starts, text_positions, side="right") - 1
        offsets = text_positions - self.read_starts[slot]
        return self.read_indices[slot], offsets

    def seed_ranges(self, query_vals: np.ndarray, query_offsets: np.ndarray) -> tuple[np.ndarray, ...]:
        """Same contract as :meth:`KmerIndex.seed_ranges`, with every
        hit on both strands: one range per query window that occurs at
        all, its own k-mer's hits (strand 0) before its reverse
        complement's (strand 1); every window is on strand 0.
        """
        query_vals = np.asarray(query_vals, dtype=np.int64)
        size = query_vals.size
        rc = np.where(query_vals >= 0, revcomp_kmer_code(query_vals, self.k), -1)
        query_pos, hit_reads, hit_offsets = self.lookup(np.concatenate([query_vals, rc]))
        strands = (query_pos >= size).astype(np.uint8)
        order = np.argsort(query_pos % max(size, 1), kind="stable")
        query_pos = query_pos[order] % max(size, 1)
        counts = np.bincount(query_pos, minlength=size).astype(np.int64)
        windows = np.flatnonzero(counts)
        lo = np.cumsum(counts) - counts
        return (
            windows,
            np.zeros(windows.size, dtype=np.uint8),
            lo[windows],
            counts[windows],
            hit_reads[order],
            hit_offsets[order],
            strands[order],
        )

    def self_join(self) -> tuple[np.ndarray, ...]:
        """Same contract as :meth:`KmerIndex.self_join`, by looking the
        index's own windows up."""
        vals, win_reads, win_offsets = self.reads.kmer_table(self.k, self.read_indices)
        windows, *ranges = self.seed_ranges(vals, win_offsets)
        return (win_reads[windows], win_offsets[windows], *ranges)

    def lookup(self, query_vals: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Same contract as :meth:`KmerIndex.lookup`.

        Each valid packed k-mer is unpacked and searched in the suffix
        array; matches return (query k-mer position, reference read,
        reference offset) triples.
        """
        query_vals = np.asarray(query_vals, dtype=np.int64)
        empty = np.empty(0, dtype=np.int64)
        if query_vals.size == 0 or self.searcher is None:
            return empty, empty.copy(), empty.copy()
        q_parts: list[np.ndarray] = []
        r_parts: list[np.ndarray] = []
        o_parts: list[np.ndarray] = []
        for qpos in np.flatnonzero(query_vals >= 0).tolist():
            pattern = unpack_kmer(int(query_vals[qpos]), self.k).astype(np.int64)
            hits = self.searcher.find(pattern)
            if hits.size == 0:
                continue
            hit_reads, hit_offsets = self._locate(hits)
            q_parts.append(np.full(hits.size, qpos, dtype=np.int64))
            r_parts.append(hit_reads)
            o_parts.append(hit_offsets)
        if not q_parts:
            return empty, empty.copy(), empty.copy()
        return np.concatenate(q_parts), np.concatenate(r_parts), np.concatenate(o_parts)
