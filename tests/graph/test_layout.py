"""The batched layout against the scalar oracle in ``tests/reference``.

``layout_clusters`` must pick, cluster by cluster, the offsets a FIFO
queue walk picks — at any tolerance, because above zero the offsets
depend on which neighbour reached a read first — and the
level-synchronous descent must choose the representatives the work
stack chooses.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.coarsen import CoarsenConfig, build_multilevel_set
from repro.graph.contigs import layout_clusters, layout_contiguity
from repro.graph.csr import split_groups
from repro.graph.hybrid import _select_representatives
from repro.graph.overlap_graph import Level, OverlapGraph
from repro.simulate.genome import random_genome
from tests.graph.conftest import graph_from_reads, tiled_readset
from tests.graph.strategies import delta_graphs
from tests.reference import layout as layout_ref


def delta_graph(n, edges):
    """G0 from ``(u, v, delta)`` triples, every overlap 60 bases."""
    eu, ev, deltas = (np.array(col, dtype=np.int64) for col in zip(*edges))
    return OverlapGraph(n, eu, ev, np.full(eu.size, 60.0), deltas=deltas)


def assert_matches_oracle(g0, clusters, tolerance):
    clusters = [np.asarray(c, dtype=np.int64) for c in clusters]
    first = np.cumsum([0, *(c.size for c in clusters)])
    members = np.concatenate(clusters) if clusters else np.empty(0, dtype=np.int64)
    offsets, ok = layout_clusters(g0, members, first, tolerance)
    assert ok.shape == (len(clusters),) and offsets.shape == members.shape
    for i, cluster in enumerate(clusters):
        want = layout_ref.cluster_layout_offsets(g0, cluster, tolerance)
        assert bool(ok[i]) == (want is not None), (i, cluster)
        if want is not None:
            assert np.array_equal(offsets[first[i] : first[i + 1]], want), (i, cluster)


#: 0->1 +10, 1->2 +10 but 0->2 +50: no layout at any small tolerance.
INCONSISTENT = [(0, 1, 10), (1, 2, 10), (0, 2, 50)]
#: same shape, off by 2: a layout only with slack, and *which* layout
#: depends on the root (from 0: 0, 10, 22; from 1: 0, 10, 20).
SLACK = [(0, 1, 10), (1, 2, 10), (0, 2, 22)]
#: 3 is reached from 1 and from 2 in the same round, 4 bases apart: the
#: queue walk gives it to 1, the neighbour discovered first.
DIAMOND = [(0, 1, 10), (0, 2, 20), (2, 3, 14), (1, 3, 20)]


class TestLayoutClustersEqualsOracle:
    @pytest.mark.parametrize(
        "edges, clusters",
        [
            (INCONSISTENT, [[0, 1, 2]]),
            (SLACK, [[0, 1, 2]]),
            (SLACK, [[1, 0, 2]]),
            (SLACK, [[2, 1], [0]]),
            (DIAMOND, [[0, 1, 2, 3]]),
            (DIAMOND, [[0, 2, 1, 3]]),
            (DIAMOND, [[3, 0], [1, 2]]),  # both disconnected inside
            (INCONSISTENT + [(3, 4, 7)], [[4, 3], [2, 0, 1]]),
        ],
    )
    @pytest.mark.parametrize("tolerance", [0, 2, 4])
    def test_named_cases(self, edges, clusters, tolerance):
        n = 1 + max(max(u, v) for u, v, _ in edges)
        assert_matches_oracle(delta_graph(n, edges), clusters, tolerance)

    def test_first_neighbour_to_reach_a_read_places_it(self):
        g = delta_graph(4, DIAMOND)
        offsets, ok = layout_clusters(g, np.arange(4), np.array([0, 4]), tolerance=4)
        assert ok.all() and offsets.tolist() == [0, 10, 20, 30]  # 3 via 1, not 34 via 2

    def test_edgeless_graph_and_no_clusters(self):
        empty = np.empty(0, dtype=np.int64)
        g = OverlapGraph(4, empty, empty, np.empty(0), deltas=empty)
        assert_matches_oracle(g, [[2], [0], [3, 1]], 0)
        offsets, ok = layout_clusters(g, empty, np.array([0]))
        assert offsets.size == 0 and ok.size == 0

    def test_rejects_what_it_cannot_label(self):
        g = delta_graph(3, SLACK)
        with pytest.raises(ValueError, match="empty cluster"):
            layout_clusters(g, np.array([0, 1]), np.array([0, 2, 2]))
        with pytest.raises(ValueError, match="listed twice"):
            layout_clusters(g, np.array([0, 1, 1]), np.array([0, 2, 3]))
        plain = Level(2, np.array([0]), np.array([1]), np.array([1.0]))
        with pytest.raises(ValueError, match="deltas"):
            layout_clusters(plain, np.array([0, 1]), np.array([0, 2]))

    @given(st.data(), delta_graphs(), st.sampled_from([0, 2]))
    def test_random_delta_graphs(self, data, g, tolerance):
        # Up to three clusters and nodes in none, members in any order.
        n = g.n_nodes
        label = data.draw(
            st.lists(st.integers(-1, 2), min_size=n, max_size=n), label="label"
        )
        order = data.draw(st.permutations(range(n)), label="order")
        clusters = [[v for v in order if label[v] == c] for c in range(3)]
        assert_matches_oracle(g, [c for c in clusters if c], tolerance)


class TestLayoutContiguityEqualsOracle:
    def test_abutting_reads_are_contiguous_and_one_base_apart_is_not(self):
        offsets = np.array([0, 100, 0, 101, 7])
        lengths = np.array([100, 100, 100, 100, 5])
        first = np.array([0, 2, 4, 5])
        assert layout_contiguity(offsets, lengths, first).tolist() == [True, False, True]

    def test_reach_does_not_carry_into_the_next_cluster(self):
        # cluster 0 reaches column 500; cluster 1's reads start far
        # below that and leave a gap of their own.
        offsets = np.array([0, 0, 300])
        lengths = np.array([500, 100, 100])
        got = layout_contiguity(offsets, lengths, np.array([0, 1, 3]))
        assert got.tolist() == [True, False]

    @given(st.data())
    def test_random_intervals(self, data):
        sizes = data.draw(st.lists(st.integers(0, 5), max_size=5), label="sizes")
        total = sum(sizes)
        offsets = np.array(
            data.draw(st.lists(st.integers(-6, 20), min_size=total, max_size=total)),
            dtype=np.int64,
        )
        lengths = np.array(
            data.draw(st.lists(st.integers(1, 6), min_size=total, max_size=total)),
            dtype=np.int64,
        )
        first = np.cumsum([0, *sizes])
        got = layout_contiguity(offsets, lengths, first)
        want = [
            layout_ref.is_layout_contiguous(offsets[a:b], lengths[a:b])
            for a, b in zip(first[:-1], first[1:])
        ]
        assert got.tolist() == want


def tiled_with_repeat(seed, repeat):
    """Tiled reads over a random genome, optionally with a 120-base
    stretch copied 150 bases downstream (a two-copy repeat close enough
    for coarsening to put both copies into one cluster)."""
    genome = random_genome(1400, np.random.default_rng(seed))
    if repeat:
        genome[450:570] = genome[300:420]
    reads, _ = tiled_readset(stride=20, genome=genome)
    return reads, graph_from_reads(reads)


class TestSelectionEqualsStackDescent:
    @settings(max_examples=12)
    @given(st.integers(0, 10_000), st.booleans(), st.sampled_from([0, 2]))
    def test_rep_levels_match(self, seed, repeat, tolerance):
        reads, g0 = tiled_with_repeat(seed, repeat)
        mls = build_multilevel_set(g0, CoarsenConfig(min_nodes=4), seed=seed)
        assert mls.n_levels > 2
        got, _ = _select_representatives(mls, reads.lengths, tolerance)
        want = layout_ref.select_representatives(mls, reads.lengths, tolerance)
        assert np.array_equal(got, want)

    def test_a_repeat_stops_the_descent_below_the_top(self):
        # Without the repeat every coarsest node is a representative;
        # with it some reads settle two or more levels further down.
        for repeat, lowest in ((False, 5), (True, 2)):
            reads, g0 = tiled_with_repeat(0, repeat)
            mls = build_multilevel_set(g0, CoarsenConfig(min_nodes=4))
            assert mls.n_levels == 6
            rep_level, _ = _select_representatives(mls, reads.lengths, 0)
            assert rep_level.min() == lowest


@pytest.mark.slow
class TestStandardDatasetsMatchReference:
    """D1-D3 as the paper benchmarks prepare them: the representatives
    and every enriched contig, voted by count or by quality, are those
    of the scalar descent and walk."""

    @pytest.mark.parametrize("tolerance", [0, 2])
    @pytest.mark.parametrize("dataset_name", ["D1", "D2", "D3"])
    def test_rep_levels_and_contigs(self, dataset_name, tolerance):
        from repro.bench.datasets import standard_datasets
        from repro.core.config import AssemblyConfig
        from repro.core.focus import FocusAssembler
        from repro.distributed.dgraph import enrich_hybrid
        from tests.reference import contigs as contigs_ref

        dataset = next(d for d in standard_datasets() if d.name == dataset_name)
        prep = FocusAssembler(AssemblyConfig(layout_tolerance=tolerance)).prepare(dataset.reads)
        want = layout_ref.select_representatives(prep.mls, prep.reads.lengths, tolerance)
        assert np.array_equal(prep.hyb.rep_level, want)
        clusters = split_groups(*prep.hyb.members_of_hybrid())
        assert len(clusters) == len(prep.assembly.contigs)
        layouts = [
            layout_ref.cluster_layout_offsets(prep.g0, cluster, tolerance)
            for cluster in clusters
        ]
        for weighted in (False, True):
            assembly = enrich_hybrid(prep.hyb, prep.g0, prep.reads, tolerance, weighted)
            for cluster, layout, contig in zip(clusters, layouts, assembly.contigs):
                (segment,) = contigs_ref.consensus_from_layout(
                    prep.reads, cluster, layout, weighted
                )
                assert np.array_equal(contig, segment)
