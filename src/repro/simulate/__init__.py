"""Synthetic data generation.

This package is the substitution for the paper's three Illumina gut
microbiome SRA runs (Table I: SRR513170, SRR513441, SRR061581) and the
Human Microbiome Project reference database.  It provides:

- random genomes with controllable GC and repeat structure,
- phylogenetically structured metagenome communities over the ten gut
  genera the paper analyses in Fig. 7,
- an Illumina-like read simulator (uniform shotgun sampling,
  substitution errors driven by a decaying 3' quality profile).

All generators are deterministic given a seed.
"""

from repro.simulate.community import Community, CommunityConfig, build_community
from repro.simulate.genome import (
    Genome,
    insert_repeats,
    mutate,
    random_genome,
)
from repro.simulate.reads import ReadSimulator, ReadSimConfig
from repro.simulate.taxonomy import (
    GUT_GENERA,
    PHYLUM_OF,
    Taxon,
    phyla,
)

__all__ = [
    "Genome",
    "random_genome",
    "mutate",
    "insert_repeats",
    "Community",
    "CommunityConfig",
    "build_community",
    "ReadSimulator",
    "ReadSimConfig",
    "Taxon",
    "GUT_GENERA",
    "PHYLUM_OF",
    "phyla",
]
