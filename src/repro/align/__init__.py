"""Read overlap detection.

Implements the Focus alignment stage (paper §II-B): reference read
subsets are indexed (a sorted k-mer table — the depth-k truncation of
the paper's suffix array), query reads are decomposed into k-mers,
the best-supported shared diagonal of each read pair is compared base
by base, and the spans passing the length/identity thresholds come back
as ``PackedOverlaps`` columns (:mod:`repro.align.overlap`), the
overlap-graph edges.  ``banded_align`` (banded Needleman–Wunsch) serves
variant calling.
"""

from repro.align.banded_nw import AlignmentResult, banded_align
from repro.align.kmer_index import KmerIndex
from repro.align.overlapper import OverlapConfig, OverlapDetector, subset_pairs

__all__ = [
    "KmerIndex",
    "banded_align",
    "AlignmentResult",
    "OverlapConfig",
    "OverlapDetector",
    "subset_pairs",
]
