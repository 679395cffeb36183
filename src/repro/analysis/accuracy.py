"""Reference-based assembly accuracy (a QUAST-lite).

Given the true reference genome(s), evaluate an assembly the way QUAST
would at small scale:

- anchor each contig to a reference via shared k-mers and a consensus
  diagonal (both strands tried);
- verify the anchored placement base-by-base (identity, mismatches);
- flag contigs with no consistent placement as *misassembled*;
- accumulate reference coverage to report *genome fraction* and
  *duplication ratio*.

The simulator gives us the ground truth the paper never had, so the
repository can assert assembly *correctness*, not just contiguity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.mapping import place_each
from repro.simulate.genome import Genome

__all__ = ["ContigPlacement", "AccuracyReport", "evaluate_assembly"]


@dataclass(frozen=True)
class ContigPlacement:
    """Where one contig landed on the references (or failed to)."""

    contig_index: int
    length: int
    reference: str | None
    position: int | None
    strand: str | None
    identity: float
    placed: bool


@dataclass(frozen=True)
class AccuracyReport:
    """Aggregate accuracy of an assembly against its references."""

    placements: tuple[ContigPlacement, ...]
    #: fraction of reference bases covered by >= 1 placed contig.
    genome_fraction: float
    #: placed contig bases / covered reference bases (1.0 = no dup).
    duplication_ratio: float
    #: mean identity of placed contigs, length-weighted.
    mean_identity: float
    #: contigs with no consistent reference placement.
    n_misassembled: int

    @property
    def n_placed(self) -> int:
        return sum(1 for p in self.placements if p.placed)


def evaluate_assembly(
    contigs: list[np.ndarray],
    references: list[Genome],
    k: int = 21,
    min_identity: float = 0.95,
    min_votes: int = 3,
) -> AccuracyReport:
    """Place every contig on the references and aggregate accuracy."""
    if not references:
        raise ValueError("need at least one reference genome")
    names = [g.name for g in references]
    coverage = [np.zeros(len(g), dtype=bool) for g in references]
    placements: list[ContigPlacement] = []
    placed_bases = 0
    identity_weighted = 0.0

    contigs = [np.asarray(contig, dtype=np.uint8) for contig in contigs]
    # One pass at no identity floor: the best placement clears
    # ``min_identity`` or nothing does, and then its identity is the
    # best unverified one, recorded for diagnostics.
    hits = place_each(
        contigs, [g.codes for g in references], k, min_identity=0.0, min_votes=min_votes
    )
    for ci, (contig, hit) in enumerate(zip(contigs, hits)):
        placed = hit is not None and hit.identity >= min_identity
        placements.append(
            ContigPlacement(
                contig_index=ci,
                length=int(contig.size),
                reference=names[hit.reference] if placed else None,
                position=hit.position if placed else None,
                strand=hit.strand if placed else None,
                identity=0.0 if hit is None else hit.identity,
                placed=placed,
            )
        )
        if placed:
            coverage[hit.reference][hit.position : hit.position + contig.size] = True
            placed_bases += int(contig.size)
            identity_weighted += hit.identity * contig.size

    covered = sum(int(c.sum()) for c in coverage)
    total_ref = sum(c.size for c in coverage)
    return AccuracyReport(
        placements=tuple(placements),
        genome_fraction=covered / total_ref if total_ref else 0.0,
        duplication_ratio=placed_bases / covered if covered else 0.0,
        mean_identity=identity_weighted / placed_bases if placed_bases else 0.0,
        n_misassembled=sum(1 for p in placements if not p.placed),
    )
