"""The doubled-set detector: the oracle of strand-once alignment.

A read set built with its reverse complements holds ``2n`` reads, the
mate of read ``i`` at ``i + n``.  Aligned as plain reads — every read
indexed, every pair ``query < ref`` voted and verified on its own —
it gives each overlap and, separately, its strand mirror.  That is
what alignment did before the mirror was derived, and what
:func:`tests.reference.overlap_loop.find_overlaps_loop` computes on
:func:`as_plain` of the set; the strand-once detector must return the
same rows, in the same order.

It verifies fewer candidates: one per pair of mirror pairs, plus the
mirror's own pick where its tie-break chooses another diagonal
(:func:`strand_once_candidates`).
"""

from __future__ import annotations

import numpy as np

from repro.align.kmer_index import KmerIndex
from repro.align.overlapper import OverlapConfig
from repro.io.readset import ReadSet
from tests.reference.overlap_loop import _candidates

__all__ = ["as_plain", "strand_once_candidates"]


def as_plain(reads: ReadSet) -> ReadSet:
    """The same reads, in RAM, as a set without mates."""
    return ReadSet._from_blocks(
        [(np.array(reads.data), np.array(reads.offsets), reads.quals, list(reads.ids), list(reads.meta))]
    )


def _representative(q: int, r: int, d: int, n: int, lengths) -> tuple[int, int, int]:
    """``(query, ref, diagonal)`` of a doubled-set candidate in the
    coordinates of the pair that stands for it and its mirror: a
    forward query and a forward ref, or a forward query and the mate
    of a ref at least as large."""
    if q >= n:  # two mates: the mirror of their forward reads
        return q - n, r - n, int(lengths[q] - lengths[r] - d)
    if r >= n and r - n < q:  # the mirror of (r - n, q + n)
        return r - n, q + n, int(d + lengths[r] - lengths[q])
    return q, r, d


def strand_once_candidates(config: OverlapConfig, reads: ReadSet) -> int:
    """Candidates the strand-once detector verifies on a set with mates:
    the doubled set's candidates, each mapped onto its representative
    pair, counted once per distinct diagonal."""
    plain = as_plain(reads)
    n, lengths = reads.n_forward, plain.lengths
    index = KmerIndex(plain, config.k, np.arange(len(plain)))
    picked = set()
    for q in range(len(plain)):
        for r, d, _votes in _candidates(config, plain, q, index, same_subset=True):
            picked.add(_representative(q, r, d, n, lengths))
    return len(picked)
