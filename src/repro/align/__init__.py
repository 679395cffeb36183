"""Read overlap detection.

Implements the Focus alignment stage (paper §II-B): reference read
subsets are indexed (a sorted k-mer table — the depth-k truncation of
the paper's suffix array), query reads are decomposed into k-mers,
reads with enough shared k-mer hits are verified with banded
Needleman–Wunsch (or a fast ungapped check), and overlaps passing the
length/identity thresholds become overlap-graph edges.
"""

from repro.align.banded_nw import AlignmentResult, banded_align
from repro.align.kmer_index import KmerIndex
from repro.align.overlap import Overlap, OverlapKind, classify_overlap, overlap_span
from repro.align.overlapper import OverlapConfig, OverlapDetector, subset_pairs

__all__ = [
    "KmerIndex",
    "banded_align",
    "AlignmentResult",
    "Overlap",
    "OverlapKind",
    "classify_overlap",
    "overlap_span",
    "OverlapConfig",
    "OverlapDetector",
    "subset_pairs",
]
