"""Per-read oracle of a read set: the reads as a list of ``Read``s.

An in-RAM set and a store-backed set share one implementation of every
accessor, so comparing one with the other checks nothing.  Both are
checked here against plain per-read computations instead: the reads
they were built from, :meth:`Read.reverse_complement` for the mates,
:func:`kmer_codes` / :func:`canonical_kmer_codes` per read and
:func:`trim_read` per read.
"""

from __future__ import annotations

import numpy as np

from repro.io.records import Read
from repro.sequence.kmers import canonical_kmer_codes, kmer_codes
from tests.reference.trim_loop import trim_read

__all__ = ["expected_reads", "trimmed_reads", "assert_matches"]


def expected_reads(reads: list[Read], mirrored: bool = False) -> list[Read]:
    """What a set of ``reads`` holds: once any read is scored, a read
    without scores scores zero; with mates, the reverse complements
    follow in the same order."""
    scored = any(r.quals is not None for r in reads)
    scores = [np.zeros(len(r), dtype=np.int64) if scored and r.quals is None else r.quals for r in reads]
    out = [Read(r.id, r.codes, quals, r.meta) for r, quals in zip(reads, scores)]
    return out + [r.reverse_complement() for r in out] if mirrored else out


def trimmed_reads(reads: list[Read], min_length: int = 1, **rule) -> list[Read]:
    """``trim_read`` of every read; reads under ``min_length`` go."""
    out = []
    for r in reads:
        codes, quals = trim_read(r.codes, r.quals, **rule)
        if codes.size >= min_length:
            out.append(Read(r.id, codes, quals, r.meta))
    return out


def _equal(got: np.ndarray, want: np.ndarray, dtype) -> None:
    assert got.dtype == dtype and np.array_equal(got, want)


def assert_matches(rs, want: list[Read], indices=(), k: int = 4, canonical: bool = False) -> None:
    """Every accessor of ``rs`` answers as the per-read oracle ``want``.

    ``indices`` (any order, repeats allowed) are the requests of the
    block and k-mer checks; the per-read checks cover every read.
    """
    scored = any(r.quals is not None for r in want)
    assert len(rs) == len(want) and rs.has_quals == scored
    lengths = [len(r) for r in want]
    _equal(rs.offsets, np.cumsum([0, *lengths]), np.int64)
    _equal(rs.lengths, np.array(lengths, dtype=np.int64), np.int64)
    _equal(rs.data, np.concatenate([np.empty(0, np.uint8), *(r.codes for r in want)]), np.uint8)
    if scored:
        _equal(rs.quals, np.concatenate([np.empty(0, np.int64), *(r.quals for r in want)]), np.int64)
    else:
        assert rs.quals is None
    assert list(rs.ids) == [r.id for r in want] and list(rs.meta) == [r.meta for r in want]
    packer = canonical_kmer_codes if canonical else kmer_codes
    for i, r in enumerate(want):
        _equal(rs.codes_of(i), r.codes, np.uint8)
        if scored:
            _equal(rs.quals_of(i), r.quals, np.int64)
        else:
            assert rs.quals_of(i) is None
        assert rs.ids[i] == r.id and rs.meta[i] == r.meta
        _equal(rs.kmer_codes_of(i, k, canonical), packer(r.codes, k), np.int64)

    indices = np.asarray(indices, dtype=np.int64)
    for quals in (False, True):
        codes, starts, scores = rs.gather_reads(indices, quals=quals)
        assert codes.dtype == np.uint8 and starts.dtype == np.int64
        assert (scores is not None) == (quals and scored)
        for j, i in enumerate(indices.tolist()):
            span = slice(int(starts[j]), int(starts[j]) + lengths[i])
            _equal(codes[span], want[i].codes, np.uint8)
            if scores is not None:
                _equal(scores[span], want[i].quals, np.int64)

    values, read_ids, offsets = rs.kmer_table(k, indices, canonical)
    per_read = [packer(want[i].codes, k) for i in indices.tolist()]
    _equal(values, np.concatenate([np.empty(0, np.int64), *per_read]), np.int64)
    _equal(read_ids, np.repeat(indices, [p.size for p in per_read]), np.int64)
    within = [np.arange(p.size) for p in per_read]
    _equal(offsets, np.concatenate([np.empty(0, np.int64), *within]), np.int64)
