"""Unit + integration tests for cluster layout and consensus."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.graph import contigs as contigs_module
from repro.graph.contigs import consensus_of_layouts, layout_clusters, layout_contiguity
from repro.graph.overlap_graph import Level, OverlapGraph
from repro.io.readset import ReadSet
from repro.io.records import Read
from repro.sequence.dna import decode
from tests.graph.conftest import graph_from_reads, tiled_readset
from tests.reference import contigs as contigs_ref


def one_cluster(nodes):
    """``(members, first)`` of a single cluster."""
    nodes = np.asarray(nodes, dtype=np.int64)
    return nodes, np.array([0, nodes.size])


TRIANGLE = (np.array([0, 1, 0]), np.array([1, 2, 2]), np.array([60.0, 60.0, 60.0]))


class TestClusterLayout:
    def test_tiled_layout_recovers_positions(self, tiled):
        reads, genome, g0 = tiled
        offsets, ok = layout_clusters(g0, *one_cluster(np.arange(len(reads))))
        assert ok.tolist() == [True]
        # True positions are 0, 40, 80, ...; offsets normalised to min 0.
        assert offsets.tolist() == [40 * i for i in range(len(reads))]

    def test_disconnected_returns_none(self, tiled):
        reads, _, g0 = tiled
        # first and last read do not overlap
        assert layout_clusters(g0, *one_cluster([0, len(reads) - 1]))[1].tolist() == [False]

    def test_singleton(self, tiled):
        _, _, g0 = tiled
        offsets, ok = layout_clusters(g0, *one_cluster([3]))
        assert ok.tolist() == [True] and offsets.tolist() == [0]

    def test_conflicting_deltas_return_none(self):
        # triangle with inconsistent deltas: 0->1 +10, 1->2 +10, 0->2 +50
        g = OverlapGraph(3, *TRIANGLE, deltas=np.array([10, 10, 50]))
        assert layout_clusters(g, *one_cluster([0, 1, 2]))[1].tolist() == [False]

    def test_tolerance_allows_slack(self):
        g = OverlapGraph(3, *TRIANGLE, deltas=np.array([10, 10, 22]))
        assert layout_clusters(g, *one_cluster([0, 1, 2]))[1].tolist() == [False]
        assert layout_clusters(g, *one_cluster([0, 1, 2]), tolerance=2)[1].tolist() == [True]

    def test_requires_deltas(self):
        g = Level(2, np.array([0]), np.array([1]), np.array([1.0]))
        with pytest.raises(ValueError):
            layout_clusters(g, *one_cluster([0, 1]))

    def test_empty_cluster_rejected(self, tiled):
        _, _, g0 = tiled
        with pytest.raises(ValueError):
            layout_clusters(g0, *one_cluster([]))


def contiguous(offsets, lengths):
    """:func:`layout_contiguity` of a single cluster."""
    return layout_contiguity(offsets, lengths, [0, len(offsets)]).tolist() == [True]


class TestIsLayoutContiguous:
    def test_contiguous(self):
        assert contiguous(np.array([0, 40, 80]), np.array([100, 100, 100]))

    def test_gap(self):
        assert not contiguous(np.array([0, 200]), np.array([100, 100]))

    def test_touching_counts(self):
        assert contiguous(np.array([0, 100]), np.array([100, 100]))

    def test_unsorted_input(self):
        assert contiguous(np.array([80, 0, 40]), np.array([100, 100, 100]))

    def test_mismatch_raises(self):
        with pytest.raises(ValueError):
            layout_contiguity(np.array([0]), np.array([1, 2]), [0, 1])


class TestConsensus:
    def test_reconstructs_genome(self, tiled):
        reads, genome, g0 = tiled
        members, first = one_cluster(np.arange(len(reads)))
        offsets, _ = layout_clusters(g0, members, first)
        (segments,) = consensus_of_layouts(reads, members, first, offsets)
        assert len(segments) == 1
        # Tiles cover genome[0 : last_start + 100]
        covered = genome[: 40 * (len(reads) - 1) + 100]
        assert decode(segments[0]) == decode(covered)

    def test_majority_vote_fixes_errors(self):
        # Three identical reads stacked; one has an error at position 5.
        base = "ACGTACGTACGTACGTACGT"
        noisy = base[:5] + ("A" if base[5] != "A" else "C") + base[6:]
        reads = ReadSet.from_strings([base, base, noisy])
        g = OverlapGraph(
            3,
            np.array([0, 1]),
            np.array([1, 2]),
            np.array([20.0, 20.0]),
            deltas=np.array([0, 0]),
        )
        members, first = one_cluster([0, 1, 2])
        offsets, _ = layout_clusters(g, members, first)
        (segs,) = consensus_of_layouts(reads, members, first, offsets)
        assert decode(segs[0]) == base

    def test_gap_splits_segments(self):
        reads = ReadSet.from_strings(["AAAA", "TTTT"])
        (segs,) = consensus_of_layouts(reads, *one_cluster([0, 1]), np.array([0, 10]))
        assert len(segs) == 2
        assert decode(segs[0]) == "AAAA"
        assert decode(segs[1]) == "TTTT"

    def test_empty_nodes(self):
        empty = np.array([], dtype=np.int64)
        assert consensus_of_layouts(ReadSet.from_strings([]), empty, [0], empty) == []

    def test_layout_failure_propagates(self):
        # An edgeless pair has no layout, so there is nothing to vote on.
        g = OverlapGraph(2, np.array([]), np.array([]), np.array([]), deltas=np.array([], dtype=np.int64))
        assert layout_clusters(g, *one_cluster([0, 1]))[1].tolist() == [False]

    def test_clusters_vote_apart(self):
        # Two clusters in one call: each votes in its own columns, from
        # its own smallest offset.
        reads = ReadSet.from_strings(["AAAA", "AACC", "GGGG"])
        got = consensus_of_layouts(reads, [1, 0, 2], [0, 2, 3], [7, 5, -3])
        assert [[decode(s) for s in segs] for segs in got] == [["AAAACC"], ["GGGG"]]


@st.composite
def stacked_clusters(draw):
    """Reads (with N runs, all-N reads and optional scores) plus a few
    clusters over them laid out with overlaps, repeats and gaps."""
    n_reads = draw(st.integers(min_value=1, max_value=12))
    with_quals = draw(st.booleans())
    reads = []
    for i in range(n_reads):
        codes = draw(st.lists(st.integers(0, 4), min_size=1, max_size=14))
        quals = (
            draw(st.lists(st.integers(0, 41), min_size=len(codes), max_size=len(codes)))
            if with_quals
            else None
        )
        reads.append(Read(f"r{i}", np.array(codes, dtype=np.uint8), quals))
    clusters, layouts = [], []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        nodes = draw(st.lists(st.integers(0, n_reads - 1), min_size=1, max_size=6))
        offsets = draw(
            st.lists(st.integers(-5, 40), min_size=len(nodes), max_size=len(nodes))
        )
        clusters.append(np.array(nodes, dtype=np.int64))
        layouts.append(np.array(offsets, dtype=np.int64))
    return ReadSet(reads), clusters, layouts


class TestBatchedConsensusEqualsOracle:
    """One gather + one bincount per block == ``np.add.at`` per read."""

    @given(stacked_clusters(), st.booleans(), st.sampled_from([1, 16, 1 << 20]))
    def test_blocks_match_per_read_oracle(self, drawn, weighted, budget):
        reads, clusters, layouts = drawn
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(contigs_module, "_MAX_BASES", budget)
            got = consensus_of_layouts(
                reads,
                np.concatenate(clusters),
                np.cumsum([0, *(c.size for c in clusters)]),
                np.concatenate(layouts),
                weighted,
            )
        want = [
            contigs_ref.consensus_from_layout(reads, c, lay, weighted)
            for c, lay in zip(clusters, layouts)
        ]
        assert [[s.tobytes() for s in segs] for segs in got] == [
            [s.tobytes() for s in segs] for segs in want
        ]

    def test_gap_and_all_n_columns(self):
        # read 1 is all N: it spans columns 2..5 without voting, so they
        # stay zero-coverage gaps, as does read 0's own N column.
        reads = ReadSet.from_strings(["ACNT", "NNNN", "GGTT"])
        nodes, layout = np.array([0, 1, 2]), np.array([0, 2, 7])
        for weighted in (False, True):
            (segs,) = consensus_of_layouts(reads, *one_cluster(nodes), layout, weighted)
            want = contigs_ref.consensus_from_layout(reads, nodes, layout, weighted)
            assert [decode(s) for s in segs] == [decode(s) for s in want]
            assert [decode(s) for s in segs] == ["AC", "T", "GGTT"]

    def test_weighted_float_sums_are_bit_identical(self):
        # In every column A and C receive the same multiset of weights
        # in different orders, so the winner is decided by the last bit
        # of two float sums: the votes must be added in the oracle's
        # (read, then position) order, not merely add up to the same.
        rng = np.random.default_rng(0)
        quals_a = rng.integers(1, 41, (12, 50))
        quals_c = rng.permuted(quals_a, axis=0)
        reads = ReadSet(
            Read(f"{'ac'[base]}{i}", np.full(50, base, dtype=np.uint8), quals[i])
            for i in range(12)
            for base, quals in ((0, quals_a), (1, quals_c))
        )
        nodes, layout = np.arange(24), np.zeros(24, dtype=np.int64)
        want = contigs_ref.consensus_from_layout(reads, nodes, layout, True)
        backwards = contigs_ref.consensus_from_layout(reads, nodes[::-1], layout, True)
        assert want[0].tobytes() != backwards[0].tobytes()  # order does matter
        (got,) = consensus_of_layouts(reads, *one_cluster(nodes), layout, quality_weighted=True)
        assert [s.tobytes() for s in got] == [s.tobytes() for s in want]
