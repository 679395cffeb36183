"""Scalar reference implementation of one overlap work unit.

One Python iteration per query read: vote, pick the best-supported
diagonal per reference read, verify each candidate on its own — the
readable specification of paper §II-B that the batched
``OverlapDetector`` is checked against.  Plain functions over an
``OverlapConfig``; overlap lists come back in the production drivers'
order (subset pairs, then query read, then reference read).
"""

from __future__ import annotations

import numpy as np

from repro.align.banded_nw import banded_align
from repro.align.kmer_index import KmerIndex
from repro.align.overlap import Overlap, classify_overlap, overlap_span
from repro.align.overlapper import OverlapConfig, subset_pairs
from repro.io.readset import ReadSet
from repro.sequence.dna import hamming_identity

__all__ = ["find_overlaps_loop", "overlap_subset_pair_loop", "overlap_keys", "vote_groups"]


def overlap_keys(overlaps: list[Overlap]) -> list[tuple]:
    """An overlap list as sorted plain rows, for order-free comparison."""
    return sorted(
        (o.query, o.ref, o.q_start, o.r_start, o.length, o.identity, o.kind.value)
        for o in overlaps
    )


def vote_groups(
    config: OverlapConfig, reads: ReadSet, query: int, index, same_subset: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ref_read, diagonal, votes) of every diagonal one query read
    shares a k-mer with, by expanding and counting its k-mer hits.

    In same-subset mode only references with a larger index are
    considered, so each unordered read pair is evaluated once.
    """
    empty = np.empty(0, dtype=np.int64)
    vals = reads.kmer_codes_of(query, config.k)
    qpos, hit_reads, hit_offsets = index.lookup(vals)
    keep = hit_reads > query if same_subset else hit_reads != query
    qpos, hit_reads, hit_offsets = qpos[keep], hit_reads[keep], hit_offsets[keep]
    if qpos.size == 0:
        return empty, empty, empty
    diag = qpos - hit_offsets
    order = np.lexsort((diag, hit_reads))
    r, d = hit_reads[order], diag[order]
    boundary = np.ones(r.size, dtype=bool)
    boundary[1:] = (r[1:] != r[:-1]) | (d[1:] != d[:-1])
    starts = np.flatnonzero(boundary)
    return r[starts], d[starts], np.diff(np.append(starts, r.size))


def _candidates(
    config: OverlapConfig, reads: ReadSet, query: int, index, same_subset: bool
) -> list[tuple[int, int, int]]:
    """(ref_read, diagonal, votes) candidates for one query read: the
    best-supported diagonal of every reference read with enough votes."""
    g_reads, g_diags, counts = vote_groups(config, reads, query, index, same_subset)
    strong = counts >= config.min_kmer_hits
    if not strong.any():
        return []
    g_reads, g_diags, counts = g_reads[strong], g_diags[strong], counts[strong]
    # Keep the best-supported diagonal per reference read.
    order = np.lexsort((counts, g_reads))
    g_reads, g_diags, counts = g_reads[order], g_diags[order], counts[order]
    last = np.ones(g_reads.size, dtype=bool)
    last[:-1] = g_reads[1:] != g_reads[:-1]
    return list(
        zip(g_reads[last].tolist(), g_diags[last].tolist(), counts[last].tolist())
    )


def _verify(
    config: OverlapConfig, reads: ReadSet, query: int, ref: int, diagonal: int
) -> Overlap | None:
    len_q, len_r = reads.length_of(query), reads.length_of(ref)
    q_start, r_start, length = overlap_span(diagonal, len_q, len_r)
    if length < config.min_overlap:
        return None
    q_seg = reads.codes_of(query)[q_start : q_start + length]
    r_seg = reads.codes_of(ref)[r_start : r_start + length]
    if config.method == "ungapped":
        identity = hamming_identity(q_seg, r_seg)
        aln_length = length
    else:
        result = banded_align(q_seg, r_seg, band=config.band)
        identity = result.identity
        aln_length = result.length
    if identity < config.min_identity or aln_length < config.min_overlap:
        return None
    kind = classify_overlap(q_start, r_start, length, len_q, len_r)
    return Overlap(
        query=query,
        ref=ref,
        q_start=q_start,
        r_start=r_start,
        length=length,
        identity=identity,
        kind=kind,
    )


def overlap_subset_pair_loop(
    config: OverlapConfig,
    reads: ReadSet,
    query_indices: np.ndarray,
    ref_indices: np.ndarray,
    same_subset: bool,
) -> tuple[list[Overlap], int]:
    """One work unit: (overlaps, candidates sent to verification)."""
    index = KmerIndex(reads, config.k, ref_indices)
    overlaps: list[Overlap] = []
    n_candidates = 0
    for q in np.asarray(query_indices).tolist():
        for ref, diag, _votes in _candidates(config, reads, q, index, same_subset):
            n_candidates += 1
            ov = _verify(config, reads, q, ref, diag)
            if ov is not None:
                overlaps.append(ov)
    return overlaps, n_candidates


def find_overlaps_loop(
    config: OverlapConfig, reads: ReadSet
) -> tuple[list[Overlap], int]:
    """All pairwise overlaps of a ReadSet, serial over subset pairs."""
    subsets = reads.split(config.n_subsets)
    overlaps: list[Overlap] = []
    n_candidates = 0
    for i, j in subset_pairs(len(subsets)):
        part, nc = overlap_subset_pair_loop(
            config, reads, subsets[i], subsets[j], same_subset=(i == j)
        )
        overlaps.extend(part)
        n_candidates += nc
    return overlaps, n_candidates
