"""Metagenomic community analysis from graph partitions (paper §VI-E).

The paper classifies reads against the HMP gut reference database with
BWA and shows that genera concentrate in few graph partitions and that
phylogenetically related genera co-locate (Fig. 7).  Here the
classifier is a k-mer voter against the simulated reference genomes
(plus optional simulator ground truth), and the same genus x partition
fraction matrices, concentration measures, and phylum co-location
scores are computed.

Assemblies are checked against those genomes by :func:`evaluate_assembly`,
which places contigs with :func:`place_each` (``repro.analysis.mapping``):
the program's one placement join, which contig dedupe and the
scaffolder's read placement share.
"""

from repro.analysis.accuracy import AccuracyReport, ContigPlacement, evaluate_assembly
from repro.analysis.classify import KmerClassifier
from repro.analysis.mapping import Placement, place_each
from repro.analysis.community import (
    genus_partition_matrix,
    max_fraction_per_genus,
    normalized_entropy_per_genus,
    phylum_colocation,
    profile_correlation,
)
from repro.analysis.heatmap import render_heatmap

__all__ = [
    "KmerClassifier",
    "place_each",
    "Placement",
    "evaluate_assembly",
    "AccuracyReport",
    "ContigPlacement",
    "genus_partition_matrix",
    "max_fraction_per_genus",
    "normalized_entropy_per_genus",
    "profile_correlation",
    "phylum_colocation",
    "render_heatmap",
]
