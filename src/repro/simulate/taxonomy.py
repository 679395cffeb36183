"""The gut-microbiome taxonomy used in the paper's Fig. 7.

The paper classifies reads into ten major genera spanning three phyla
and observes that genera of the same phylum co-locate in graph
partitions.  We reproduce exactly that genus/phylum structure.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Taxon", "GUT_GENERA", "PHYLUM_OF", "phyla"]


@dataclass(frozen=True)
class Taxon:
    """A genus together with its phylum."""

    genus: str
    phylum: str


#: The ten genera from Fig. 7 with their (real) phylum assignments.
GUT_GENERA: tuple[Taxon, ...] = (
    Taxon("Clostridium", "Firmicutes"),
    Taxon("Eubacterium", "Firmicutes"),
    Taxon("Faecalibacterium", "Firmicutes"),
    Taxon("Roseburia", "Firmicutes"),
    Taxon("Alistipes", "Bacteroidetes"),
    Taxon("Bacteroides", "Bacteroidetes"),
    Taxon("Parabacteroides", "Bacteroidetes"),
    Taxon("Prevotella", "Bacteroidetes"),
    Taxon("Escherichia", "Proteobacteria"),
    Taxon("Acinetobacter", "Proteobacteria"),
)

#: genus name -> phylum name.
PHYLUM_OF: dict[str, str] = {t.genus: t.phylum for t in GUT_GENERA}


def phyla() -> list[str]:
    """Distinct phyla in taxonomy order."""
    seen: list[str] = []
    for t in GUT_GENERA:
        if t.phylum not in seen:
            seen.append(t.phylum)
    return seen
