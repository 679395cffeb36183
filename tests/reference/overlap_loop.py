"""Scalar reference implementation of one overlap work unit.

One Python iteration per query read: vote, pick the best-supported
diagonal per reference read, verify each candidate on its own — the
readable specification of paper §II-B that the batched
``OverlapDetector`` is checked against.  Plain functions over an
``OverlapConfig``; overlaps come back as ``PackedOverlaps`` rows in the
production drivers' order (subset pairs, then query read, then
reference read).
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np

from repro.align.kmer_index import KmerIndex
from repro.align.overlap import KIND_NAMES, PackedOverlaps
from repro.align.overlapper import OverlapConfig, subset_pairs
from repro.io.readset import ReadSet
from repro.sequence.dna import hamming_identity

__all__ = [
    "assert_same_columns",
    "classify_overlap",
    "find_overlaps_loop",
    "overlap_keys",
    "overlap_span",
    "overlap_subset_pair_loop",
    "vote_groups",
]

_DTYPES = {f.name: getattr(PackedOverlaps.empty(), f.name).dtype for f in fields(PackedOverlaps)}


def assert_same_columns(got: PackedOverlaps, expected: PackedOverlaps, label="") -> None:
    """All seven columns equal, byte for byte and dtype for dtype."""
    for f in fields(PackedOverlaps):
        a, b = getattr(got, f.name), getattr(expected, f.name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (label, f.name)


def overlap_keys(overlaps: PackedOverlaps) -> list[tuple]:
    """The rows as sorted plain tuples, for order-free comparison."""
    return sorted(zip(*(getattr(overlaps, f.name).tolist() for f in fields(PackedOverlaps))))


def overlap_span(diagonal: int, len_q: int, len_r: int) -> tuple[int, int, int]:
    """(q_start, r_start, length) of the overlap implied by ``diagonal``.

    ``diagonal = q_pos - r_pos`` for any matched position pair.  Length
    may be zero or negative if the diagonal puts the reads apart; the
    caller must check.
    """
    q_start = max(0, diagonal)
    r_start = max(0, -diagonal)
    length = min(len_q - q_start, len_r - r_start)
    return q_start, r_start, length


def classify_overlap(q_start: int, r_start: int, length: int, len_q: int, len_r: int) -> str:
    """Kind (one of ``KIND_NAMES``) of a span from :func:`overlap_span`."""
    if length <= 0:
        raise ValueError("not an overlap (non-positive length)")
    q_full = q_start == 0 and q_start + length == len_q
    r_full = r_start == 0 and r_start + length == len_r
    if q_full and r_full:
        return "equal"
    if q_full:
        return "query_contained"
    if r_full:
        return "ref_contained"
    if q_start > 0:
        # query suffix aligns reference prefix -> query sits to the left
        return "query_left"
    return "query_right"


def _packed(rows: list[tuple]) -> PackedOverlaps:
    """``PackedOverlaps`` of ``(query, ref, q_start, r_start, length,
    identity, kind_code)`` rows, in the production dtypes."""
    if not rows:
        return PackedOverlaps.empty()
    columns = zip(fields(PackedOverlaps), zip(*rows))
    return PackedOverlaps(**{f.name: np.array(c, dtype=_DTYPES[f.name]) for f, c in columns})


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
) -> tuple | None:
    """The overlap row of one candidate, or ``None`` if it fails."""
    len_q, len_r = reads.length_of(query), reads.length_of(ref)
    q_start, r_start, length = overlap_span(diagonal, len_q, len_r)
    if length < config.min_overlap:
        return None
    q_seg = reads.codes_of(query)[q_start : q_start + length]
    r_seg = reads.codes_of(ref)[r_start : r_start + length]
    identity = hamming_identity(q_seg, r_seg)
    if identity < config.min_identity:
        return None
    kind = classify_overlap(q_start, r_start, length, len_q, len_r)
    return (query, ref, q_start, r_start, length, identity, KIND_NAMES.index(kind))


def overlap_subset_pair_loop(
    config: OverlapConfig,
    reads: ReadSet,
    query_indices: np.ndarray,
    ref_indices: np.ndarray,
    same_subset: bool,
) -> tuple[PackedOverlaps, int]:
    """One work unit: (overlaps, candidates sent to verification)."""
    index = KmerIndex(reads, config.k, ref_indices)
    rows = []
    n_candidates = 0
    for q in np.asarray(query_indices).tolist():
        for ref, diag, _votes in _candidates(config, reads, q, index, same_subset):
            n_candidates += 1
            row = _verify(config, reads, q, ref, diag)
            if row is not None:
                rows.append(row)
    return _packed(rows), n_candidates


def find_overlaps_loop(config: OverlapConfig, reads: ReadSet) -> tuple[PackedOverlaps, int]:
    """All pairwise overlaps of a ReadSet, serial over subset pairs."""
    subsets = reads.split(config.n_subsets)
    parts = []
    n_candidates = 0
    for i, j in subset_pairs(len(subsets)):
        part, nc = overlap_subset_pair_loop(
            config, reads, subsets[i], subsets[j], same_subset=(i == j)
        )
        parts.append(part)
        n_candidates += nc
    return PackedOverlaps.concatenate(parts), n_candidates
