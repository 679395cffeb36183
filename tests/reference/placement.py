"""Reference k-mer placement: a sorted index over the references, every
occurrence of each query k-mer looked up in it, each strand separately.

The specification ``repro.analysis.mapping.place_each`` is checked
against (that one sorts the canonical k-mers of references and queries
together, so one sort serves both strands), and the placement of the
reference contig dedupe in ``tests/reference/contigs.py``.  Same
arguments and results as the production function.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.mapping import Placement
from repro.sequence.dna import hamming_identity, reverse_complement
from repro.sequence.kmers import kmer_codes

__all__ = ["place_each"]


def _windows(codes: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(positions, packed values) of the N-free k-mers of ``codes``."""
    values = kmer_codes(codes, k)
    pos = np.flatnonzero(values >= 0)
    return pos, values[pos]


def place_each(queries, references, k=21, min_identity=0.9, min_votes=2):
    """Best verified placement of each query on any reference, either
    strand: the most voted (reference, diagonal), the lowest on a tie,
    in range and at ``min_identity``; '+' wins an identity tie."""
    if not references:
        raise ValueError("need at least one reference sequence")
    refs = [np.asarray(r, dtype=np.uint8) for r in references]
    windows = [_windows(r, k) for r in refs]
    values = np.concatenate([v for _, v in windows])
    order = np.argsort(values, kind="stable")
    values = values[order]
    ref_of = np.repeat(np.arange(len(refs)), [v.size for _, v in windows])[order]
    ref_pos = np.concatenate([p for p, _ in windows])[order]
    out = []
    for query in queries:
        query = np.asarray(query, dtype=np.uint8)
        best = None
        for strand, seq in (("+", query), ("-", reverse_complement(query))):
            qpos, needles = _windows(seq, k)
            lo = np.searchsorted(values, needles, side="left")
            hi = np.searchsorted(values, needles, side="right")
            rows = [np.arange(a, b) for a, b in zip(lo.tolist(), hi.tolist())]
            if not any(r.size for r in rows):
                continue
            hits = np.concatenate(rows)
            diag = ref_pos[hits] - np.repeat(qpos, hi - lo)
            keys, votes = np.unique(
                np.stack([ref_of[hits], diag], axis=1), axis=0, return_counts=True
            )
            top = int(np.argmax(votes))
            ref, start = (int(x) for x in keys[top])
            codes = refs[ref]
            if votes[top] < min_votes or start < 0 or start + seq.size > codes.size:
                continue
            identity = hamming_identity(seq, codes[start : start + seq.size])
            if identity >= min_identity and (best is None or identity > best.identity):
                best = Placement(ref, start, strand, identity, int(votes[top]))
        out.append(best)
    return out
