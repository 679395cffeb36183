"""k-mer seeded sequence-to-reference placement.

The shared engine behind the QUAST-lite evaluator and the scaffolder's
read mapping: index reference sequences by k-mer, place a query by the
consensus diagonal of its k-mer hits (both strands), and verify the
placement base-by-base.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.io.readset import ragged_positions
from repro.sequence.dna import hamming_identity, reverse_complement
from repro.sequence.kmers import batched_kmer_positions, stable_sort

__all__ = ["Placement", "SequenceMapper"]

_REF_SHIFT = 2**40
_DIAG_BIAS = 2**30


@dataclass(frozen=True)
class Placement:
    """A verified placement of a query on a reference sequence."""

    reference: int
    position: int
    strand: str
    identity: float
    votes: int


class SequenceMapper:
    """Places query sequences on a set of reference code arrays."""

    def __init__(self, references: list[np.ndarray], k: int = 21) -> None:
        if k < 1:
            raise ValueError("k must be positive")
        if not references:
            raise ValueError("need at least one reference sequence")
        self.k = k
        self.references = [np.asarray(r, dtype=np.uint8) for r in references]
        pos, vals, counts = batched_kmer_positions(self.references, k)
        self.vals, order = stable_sort(vals)
        self.refs = np.repeat(np.arange(len(self.references)), counts)[order]
        self.pos = pos[order]

    def _hit_ranges(
        self, seqs: list[np.ndarray]
    ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Per sequence: (k-mer position, first index row, row count) of
        its valid k-mers, all looked up in one pass.

        The needles are sorted first, so both binary searches walk the
        index front to back instead of jumping through it per k-mer.
        """
        qpos, needles, sizes = batched_kmer_positions(seqs, self.k)
        order = np.argsort(needles)
        needles = needles[order]
        lo = np.searchsorted(self.vals, needles, side="left")
        counts = np.empty(needles.size, dtype=np.int64)
        counts[order] = np.searchsorted(self.vals, needles, side="right") - lo
        first = np.empty(needles.size, dtype=np.int64)
        first[order] = lo
        cuts = np.cumsum(sizes)[:-1]
        return list(zip(np.split(qpos, cuts), np.split(first, cuts), np.split(counts, cuts)))

    def _best_diagonal(
        self, qpos: np.ndarray, first: np.ndarray, counts: np.ndarray
    ) -> tuple[int, int, int] | None:
        """(reference, start, votes) of the consensus diagonal."""
        flat = ragged_positions(first, counts)
        if flat.size == 0:
            return None
        diag = self.pos[flat] - np.repeat(qpos, counts)
        key = self.refs[flat] * _REF_SHIFT + (diag + _DIAG_BIAS)
        uniq, votes = np.unique(key, return_counts=True)
        best = int(np.argmax(votes))
        ref = int(uniq[best] // _REF_SHIFT)
        start = int((uniq[best] % _REF_SHIFT) - _DIAG_BIAS)
        return ref, start, int(votes[best])

    def _verify(self, seq: np.ndarray, ref: int, start: int) -> float | None:
        codes = self.references[ref]
        if start < 0 or start + seq.size > codes.size:
            return None
        return hamming_identity(seq, codes[start : start + seq.size])

    def place_each(
        self,
        queries: list[np.ndarray],
        min_identity: float = 0.9,
        min_votes: int = 2,
    ) -> list[Placement | None]:
        """:meth:`place` for each query, with the index looked up once
        for all of them, both strands."""
        if not queries:
            return []
        n = len(queries)
        seqs = [np.asarray(q, dtype=np.uint8) for q in queries]
        seqs += [reverse_complement(q) for q in seqs]
        ranges = self._hit_ranges(seqs)
        out: list[Placement | None] = []
        for i in range(n):
            best: Placement | None = None
            for strand, j in (("+", i), ("-", n + i)):
                hit = self._best_diagonal(*ranges[j])
                if hit is None or hit[2] < min_votes:
                    continue
                ref, start, votes = hit
                identity = self._verify(seqs[j], ref, start)
                if identity is None or identity < min_identity:
                    continue
                if best is None or identity > best.identity:
                    best = Placement(
                        reference=ref, position=start, strand=strand,
                        identity=identity, votes=votes,
                    )
            out.append(best)
        return out

    def place(
        self, query: np.ndarray, min_identity: float = 0.9, min_votes: int = 2
    ) -> Placement | None:
        """Best verified placement of ``query`` on any reference, either
        strand."""
        return self.place_each([query], min_identity, min_votes)[0]
