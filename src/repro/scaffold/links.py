"""Contig-link evidence from mate pairs.

A *link witness* is one mate pair whose reads place on two different
contigs.  With Illumina FR pairs (mate 1 genome-forward at the
fragment's 5' end, mate 2 genome-reverse at its 3' end) a witness
determines:

- the contigs' order along the genome (mate 1's contig is left),
- each contig's orientation relative to its stored sequence,
- a gap estimate: fragment length minus the bases of the fragment
  lying inside each contig.

Witnesses agreeing on (left contig+orientation, right
contig+orientation) are aggregated into a :class:`ContigLink`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.mapping import Placement, place_each
from repro.io.readset import ReadSet

__all__ = ["pair_indices", "ContigLink", "build_links", "place_reads", "estimate_insert_size"]


def pair_indices(reads: ReadSet) -> list[tuple[int, int]]:
    """(mate1 index, mate2 index) pairs from pair metadata."""
    by_pair: dict[tuple, dict[int, int]] = {}
    for i, meta in enumerate(reads.meta):
        if "pair" in meta and "mate" in meta:
            key = (meta.get("source"), meta["pair"])
            by_pair.setdefault(key, {})[meta["mate"]] = i
    out = []
    for mates in by_pair.values():
        if 1 in mates and 2 in mates:
            out.append((mates[1], mates[2]))
    return out


def place_reads(
    reads: ReadSet,
    contigs: list[np.ndarray],
    k: int = 17,
    min_identity: float = 0.9,
) -> list[Placement | None]:
    """Best contig placement per read (None when unplaced)."""
    return place_each(
        [reads.codes_of(i) for i in range(len(reads))], contigs, k, min_identity, min_votes=2
    )


@dataclass(frozen=True)
class ContigLink:
    """Aggregated evidence that contig ``a`` precedes contig ``b``.

    Orientations are '+' when the stored contig sequence matches the
    genome's forward strand in this scaffold.
    """

    a: int
    a_orient: str
    b: int
    b_orient: str
    n_pairs: int
    gap: float

    def canonical(self) -> "ContigLink":
        """The same link keyed from its lower-numbered contig.

        Reading a scaffold backwards flips both order and orientations.
        """
        if self.a <= self.b:
            return self
        flip = {"+": "-", "-": "+"}
        return ContigLink(
            a=self.b,
            a_orient=flip[self.b_orient],
            b=self.a,
            b_orient=flip[self.a_orient],
            n_pairs=self.n_pairs,
            gap=self.gap,
        )


def _witness(
    p1: Placement,
    p2: Placement,
    read_length: int,
    insert_size: float,
    contig_lengths: np.ndarray,
) -> tuple[tuple[int, str, int, str], float]:
    """(link key, gap estimate) from one cross-contig pair."""
    # Mate 1 is genome-forward: '+' placement means its contig is
    # genome-forward as stored.
    a = p1.reference
    a_orient = "+" if p1.strand == "+" else "-"
    if a_orient == "+":
        tail_a = int(contig_lengths[a]) - p1.position
    else:
        tail_a = p1.position + read_length
    # Mate 2 is genome-reverse: '-' placement means its contig is
    # genome-forward as stored.
    b = p2.reference
    b_orient = "+" if p2.strand == "-" else "-"
    if b_orient == "+":
        head_b = p2.position + read_length
    else:
        head_b = int(contig_lengths[b]) - p2.position
    gap = insert_size - tail_a - head_b
    return (a, a_orient, b, b_orient), gap


def estimate_insert_size(
    placements: list[Placement | None],
    pairs: list[tuple[int, int]],
    read_length: int,
    fallback: float = 400.0,
) -> float:
    """Median fragment length from pairs landing on one contig."""
    spans = []
    for i1, i2 in pairs:
        p1, p2 = placements[i1], placements[i2]
        if p1 is None or p2 is None or p1.reference != p2.reference:
            continue
        if p1.strand == p2.strand:
            continue  # discordant orientation
        left = min(p1.position, p2.position)
        right = max(p1.position, p2.position) + read_length
        spans.append(right - left)
    if not spans:
        return fallback
    return float(np.median(spans))


def build_links(
    reads: ReadSet,
    contigs: list[np.ndarray],
    min_pairs: int = 3,
    k: int = 17,
    insert_size: float | None = None,
) -> list[ContigLink]:
    """Aggregate cross-contig mate pairs into supported links.

    Contig pairs whose witnesses disagree on orientation are dropped as
    ambiguous unless one configuration holds a 3:1 majority.
    """
    pairs = pair_indices(reads)
    if not pairs:
        return []
    read_length = int(reads.length_of(pairs[0][0]))
    placements = place_reads(reads, contigs, k=k)
    if insert_size is None:
        insert_size = estimate_insert_size(placements, pairs, read_length)
    lengths = np.array([c.size for c in contigs], dtype=np.int64)

    witness_gaps: dict[tuple[int, str, int, str], list[float]] = {}
    for i1, i2 in pairs:
        p1, p2 = placements[i1], placements[i2]
        if p1 is None or p2 is None or p1.reference == p2.reference:
            continue
        key, gap = _witness(p1, p2, read_length, insert_size, lengths)
        link = ContigLink(*key, n_pairs=1, gap=gap).canonical()
        witness_gaps.setdefault((link.a, link.a_orient, link.b, link.b_orient), []).append(
            link.gap
        )

    # Resolve per contig-pair orientation conflicts.
    by_pair: dict[tuple[int, int], list[tuple[tuple, list[float]]]] = {}
    for key, gaps in witness_gaps.items():
        by_pair.setdefault((key[0], key[2]), []).append((key, gaps))
    links: list[ContigLink] = []
    for variants in by_pair.values():
        variants.sort(key=lambda kv: -len(kv[1]))
        best_key, best_gaps = variants[0]
        others = sum(len(g) for _, g in variants[1:])
        if len(best_gaps) < min_pairs:
            continue
        if others and len(best_gaps) < 3 * others:
            continue  # ambiguous orientation evidence
        links.append(
            ContigLink(
                a=best_key[0],
                a_orient=best_key[1],
                b=best_key[2],
                b_orient=best_key[3],
                n_pairs=len(best_gaps),
                gap=float(np.median(best_gaps)),
            )
        )
    return links
