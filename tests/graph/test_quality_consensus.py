"""Tests for quality-weighted consensus."""

import numpy as np

from repro.graph.contigs import consensus_of_layouts
from repro.io.records import Read
from repro.io.readset import ReadSet
from repro.sequence.dna import decode


def stacked_reads(seqs, quals_list):
    reads = [
        Read.from_string(f"r{i}", s, quals=np.array(q))
        for i, (s, q) in enumerate(zip(seqs, quals_list))
    ]
    return ReadSet(reads)


def stacked_consensus(rs, quality_weighted=False):
    """Consensus of every read of ``rs`` stacked at column 0, one cluster."""
    n = len(rs)
    (segments,) = consensus_of_layouts(
        rs, np.arange(n), [0, n], np.zeros(n, dtype=np.int64), quality_weighted
    )
    return segments


class TestQualityWeightedConsensus:
    def test_tie_broken_by_quality(self):
        # two reads disagree at position 2: confident C vs junk A
        rs = stacked_reads(
            ["AACAA", "AAAAA"],
            [[40, 40, 40, 40, 40], [40, 40, 2, 40, 40]],
        )
        weighted = stacked_consensus(rs, quality_weighted=True)
        assert decode(weighted[0]) == "AACAA"

    def test_majority_still_wins_against_one_confident_error(self):
        rs = stacked_reads(
            ["AAAAA", "AAAAA", "AACAA"],
            [[30] * 5, [30] * 5, [41] * 5],
        )
        out = stacked_consensus(rs, quality_weighted=True)
        assert decode(out[0]) == "AAAAA"

    def test_unweighted_default_unchanged(self):
        rs = stacked_reads(
            ["AACAA", "AAAAA"],
            [[40] * 5, [40, 40, 2, 40, 40]],
        )
        out = stacked_consensus(rs)
        # unweighted tie: argmax picks the smaller code (A=0 beats C=1)
        assert decode(out[0]) == "AAAAA"

    def test_no_quals_falls_back(self):
        rs = ReadSet.from_strings(["ACGT", "ACGT"])
        out = stacked_consensus(rs, quality_weighted=True)
        assert decode(out[0]) == "ACGT"

    def test_weighted_matches_unweighted_on_agreement(self):
        rs = stacked_reads(["ACGTACGT"] * 3, [[35] * 8] * 3)
        a = stacked_consensus(rs)
        b = stacked_consensus(rs, quality_weighted=True)
        assert decode(a[0]) == decode(b[0]) == "ACGTACGT"
