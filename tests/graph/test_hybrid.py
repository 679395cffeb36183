"""Unit + integration tests for the hybrid graph set."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import AssemblyConfig
from repro.core.focus import FocusAssembler
from repro.graph.coarsen import CoarsenConfig, MultilevelGraphSet, build_multilevel_set
from repro.graph.contigs import layout_clusters, layout_contiguity
from repro.graph.csr import split_groups
from repro.graph.hybrid import HybridGraphSet, build_hybrid_set
from repro.graph.overlap_graph import Level, OverlapGraph
from repro.partition.multilevel import (
    partition_graph_set,
    partition_via_hybrid,
    partition_via_multilevel,
)
from repro.simulate.community import CommunityConfig, build_community
from repro.simulate.reads import ReadSimConfig, ReadSimulator
from tests.graph.conftest import graph_from_reads, tiled_readset
from tests.graph.strategies import delta_graphs
from tests.graph.test_overlap_graph import LEVEL_ARRAYS, assert_same_arrays
from tests.reference import hybrid_build
from tests.reference import layout as layout_ref


@pytest.fixture
def tiled_mls():
    reads, genome = tiled_readset(genome_len=2000, stride=25, seed=1)
    g0 = graph_from_reads(reads)
    mls = build_multilevel_set(g0, CoarsenConfig(min_nodes=4), seed=1)
    return reads, g0, mls


def is_contiguous_cluster(g0, nodes, read_lengths, tolerance=0):
    """Selection's test of one cluster: a layout that leaves no gap."""
    nodes = np.asarray(nodes, dtype=np.int64)
    first = np.array([0, nodes.size])
    offsets, ok = layout_clusters(g0, nodes, first, tolerance)
    return bool(ok[0] and layout_contiguity(offsets, read_lengths[nodes], first)[0])


class TestIsContiguousCluster:
    def test_singleton_always(self):
        g = OverlapGraph(1, np.array([]), np.array([]), np.array([]), deltas=np.array([], dtype=np.int64))
        assert is_contiguous_cluster(g, np.array([0]), np.array([100]))

    def test_linear_cluster(self, tiled_mls):
        reads, g0, _ = tiled_mls
        nodes = np.arange(5)
        assert is_contiguous_cluster(g0, nodes, reads.lengths)

    def test_disconnected_cluster(self, tiled_mls):
        reads, g0, _ = tiled_mls
        nodes = np.array([0, len(reads) - 1])
        assert not is_contiguous_cluster(g0, nodes, reads.lengths)

    def test_conflicting_cluster(self):
        g = OverlapGraph(
            3,
            np.array([0, 1, 0]),
            np.array([1, 2, 2]),
            np.array([60.0, 60.0, 60.0]),
            deltas=np.array([10, 10, 90]),
        )
        assert not is_contiguous_cluster(g, np.array([0, 1, 2]), np.array([100, 100, 100]))


class TestBuildHybridSet:
    def test_levels_match_multilevel(self, tiled_mls):
        reads, g0, mls = tiled_mls
        hyb = build_hybrid_set(mls, reads.lengths)
        assert hyb.n_levels == mls.n_levels

    def test_hybrid_no_bigger_than_g0(self, tiled_mls):
        reads, g0, mls = tiled_mls
        hyb = build_hybrid_set(mls, reads.lengths)
        assert hyb.hybrid.n_nodes <= g0.n_nodes
        # Linear data coarsens well: hybrid graph should be much smaller.
        assert hyb.hybrid.n_nodes < g0.n_nodes / 2

    def test_coarsest_hybrid_equals_coarsest_multilevel(self, tiled_mls):
        reads, _, mls = tiled_mls
        hyb = build_hybrid_set(mls, reads.lengths)
        assert hyb.graphs[-1].n_nodes == mls.coarsest.n_nodes

    def test_node_weight_conserved(self, tiled_mls):
        reads, g0, mls = tiled_mls
        hyb = build_hybrid_set(mls, reads.lengths)
        for g in hyb.graphs:
            assert g.total_node_weight == g0.total_node_weight

    def test_base_maps_cover(self, tiled_mls):
        reads, g0, mls = tiled_mls
        hyb = build_hybrid_set(mls, reads.lengths)
        for i, g in enumerate(hyb.graphs):
            bm = hyb.base_maps[i]
            assert bm.size == g0.n_nodes
            assert set(bm.tolist()) == set(range(g.n_nodes))

    def test_mappings_compose_with_base_maps(self, tiled_mls):
        reads, _, mls = tiled_mls
        hyb = build_hybrid_set(mls, reads.lengths)
        for i in range(hyb.n_levels - 1):
            assert (hyb.mappings[i][hyb.base_maps[i]] == hyb.base_maps[i + 1]).all()

    def test_rep_levels_assigned(self, tiled_mls):
        reads, _, mls = tiled_mls
        hyb = build_hybrid_set(mls, reads.lengths)
        assert (hyb.rep_level >= 0).all()
        assert (hyb.rep_level <= mls.n_levels - 1).all()

    def test_clusters_of_hybrid_partition_reads(self, tiled_mls):
        reads, _, mls = tiled_mls
        hyb = build_hybrid_set(mls, reads.lengths)
        members, first = hyb.members_of_hybrid()
        assert first.size == hyb.hybrid.n_nodes + 1 and (np.diff(first) > 0).all()
        assert sorted(members.tolist()) == list(range(len(reads)))

    def test_every_hybrid_cluster_is_contiguous(self, tiled_mls):
        reads, g0, mls = tiled_mls
        hyb = build_hybrid_set(mls, reads.lengths)
        members, first = hyb.members_of_hybrid()
        offsets, ok = layout_clusters(g0, members, first)
        assert ok.all() and layout_contiguity(offsets, reads.lengths[members], first).all()

    def test_trivial_multilevel(self):
        # a graph too small to coarsen: hybrid == multilevel == single level
        g = OverlapGraph(
            3,
            np.array([0, 1]),
            np.array([1, 2]),
            np.array([60.0, 60.0]),
            deltas=np.array([10, 10]),
        )
        mls = build_multilevel_set(g, CoarsenConfig(min_nodes=10))
        hyb = build_hybrid_set(mls, np.array([100, 100, 100]))
        assert hyb.n_levels == 1
        assert hyb.hybrid.n_nodes == 3

    def test_wrong_lengths_rejected(self, tiled_mls):
        reads, _, mls = tiled_mls
        with pytest.raises(ValueError):
            build_hybrid_set(mls, np.array([100]))


@pytest.fixture(scope="module")
def community_prep():
    """A small simulated community, with repeats, through ``prepare()``."""
    community = build_community(
        CommunityConfig(shared_length=1500, private_length=1200, repeat_length=150),
        seed=13,
    )
    reads = ReadSimulator(ReadSimConfig(read_length=100, coverage=5, seed=13)).simulate_community(
        community
    )
    config = AssemblyConfig(n_partitions=4, backend="serial")
    return config, FocusAssembler(config).prepare(reads)


def as_level(arrays):
    n = arrays["node_weights"].size
    return Level(n, arrays["eu"], arrays["ev"], arrays["weights"], arrays["node_weights"])


class TestContractedSetsMatchOracles:
    """Every level built by chained contraction == the same level built
    straight from G0 by the builders in ``tests/reference/hybrid_build.py``,
    array for array, and so are the enriched hybrid edges."""

    def test_multilevel_levels(self, community_prep):
        _, prep = community_prep
        mls = prep.mls
        assert mls.n_levels > 2
        for i, g in enumerate(mls.graphs[1:], start=1):
            want = hybrid_build.contracted_from_g0(prep.g0, mls.map_to_level(i))
            assert_same_arrays(g, want, LEVEL_ARRAYS)

    def test_hybrid_set(self, community_prep):
        config, prep = community_prep
        hyb = prep.hyb
        rep_level = layout_ref.select_representatives(
            prep.mls, prep.reads.lengths, config.layout_tolerance
        )
        assert np.array_equal(hyb.rep_level, rep_level)
        assert 0 < hyb.hybrid.n_nodes < prep.g0.n_nodes and rep_level.max() > 0
        graphs, mappings, base_maps = hybrid_build.hybrid_set(prep.mls, rep_level)
        assert len(hyb.graphs) == len(graphs)
        for got, want in zip(hyb.graphs, graphs):
            assert_same_arrays(got, want, LEVEL_ARRAYS)
        for got, want in zip(hyb.mappings + hyb.base_maps, mappings + base_maps):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_enriched_edges(self, community_prep):
        config, prep = community_prep
        g0, hyb, graph = prep.g0, prep.hyb, prep.assembly.graph
        read_offset = np.zeros(g0.n_nodes, dtype=np.int64)
        for cluster in split_groups(*hyb.members_of_hybrid()):
            if cluster.size > 1:
                read_offset[cluster] = layout_ref.cluster_layout_offsets(
                    g0, cluster, config.layout_tolerance
                )
        assert np.array_equal(hyb.read_offsets, read_offset)
        want = hybrid_build.enriched_edges(
            g0, hyb.base_maps[0], read_offset, prep.assembly.contig_lengths
        )
        assert graph.n_edges > 0
        assert_same_arrays(graph, want, ("eu", "ev", "weights", "deltas"))
        assert np.array_equal(graph.node_weights, hyb.hybrid.node_weights)

    def test_partition_labels(self, community_prep):
        config, prep = community_prep
        k, pcfg = config.n_partitions, config.partition
        graphs, mappings, base_maps = hybrid_build.hybrid_set(prep.mls, prep.hyb.rep_level)
        oracle_hyb = HybridGraphSet(
            [as_level(g) for g in graphs],
            mappings,
            base_maps,
            prep.hyb.rep_level,
            prep.hyb.read_offsets,
        )
        labels, _, _ = partition_graph_set(oracle_hyb, k, pcfg)
        got = partition_via_hybrid(prep.mls, prep.hyb, k, pcfg).labels_finest
        assert np.array_equal(got, labels)
        mls = prep.mls
        oracle_mls = MultilevelGraphSet(
            [prep.g0]
            + [
                as_level(hybrid_build.contracted_from_g0(prep.g0, mls.map_to_level(i)))
                for i in range(1, mls.n_levels)
            ],
            mls.mappings,
        )
        labels, _, _ = partition_graph_set(oracle_mls, k, pcfg)
        assert np.array_equal(partition_via_multilevel(mls, k, pcfg).labels_finest, labels)


def assert_layouts_hold(g0, hyb, read_lengths):
    """Every H0 cluster's ``read_offsets`` honour each induced G0 edge
    within the set's tolerance, start at 0 and leave no gap."""
    offsets, h = hyb.read_offsets, hyb.base_maps[0]
    assert offsets.shape == (g0.n_nodes,) and offsets.dtype == np.int64
    inside = h[g0.eu] == h[g0.ev]
    miss = offsets[g0.ev] - offsets[g0.eu] - g0.deltas
    assert (np.abs(miss[inside]) <= hyb.tolerance).all()
    for cluster in split_groups(*hyb.members_of_hybrid()):
        assert offsets[cluster].min() == 0
        assert layout_ref.is_layout_contiguous(offsets[cluster], read_lengths[cluster])


@pytest.fixture(scope="module")
def standard_preps():
    """D1-D3 through ``prepare()``, by name."""
    from repro.bench.datasets import standard_datasets

    assembler = FocusAssembler(AssemblyConfig())
    return {d.name: assembler.prepare(d.reads) for d in standard_datasets()[:3]}


class TestSelectionLaysOutOnce:
    """Selection's accepted layouts are the ones the set carries: what
    enrich reads instead of laying the H0 clusters out again."""

    @settings(max_examples=60)
    @given(
        delta_graphs(),
        st.data(),
        st.sampled_from([0, 2]),
        st.integers(0, 3),
    )
    def test_carried_layouts_hold_on_random_graphs(self, g0, data, tolerance, seed):
        n = g0.n_nodes
        lengths = np.array(
            data.draw(st.lists(st.integers(5, 40), min_size=n, max_size=n), label="lengths"),
            dtype=np.int64,
        )
        mls = build_multilevel_set(g0, CoarsenConfig(min_nodes=1), seed=seed)
        hyb = build_hybrid_set(mls, lengths, tolerance=tolerance)
        assert hyb.tolerance == tolerance
        assert_layouts_hold(g0, hyb, lengths)
        # A level-0 singleton sits at 0.
        assert (hyb.read_offsets[hyb.rep_level == 0] == 0).all()

    @pytest.mark.parametrize("tolerance", [0, 2])
    @pytest.mark.parametrize("name", ["D1", "D2", "D3"])
    def test_carried_layouts_are_the_h0_relayout(self, standard_preps, name, tolerance):
        prep = standard_preps[name]
        hyb = build_hybrid_set(prep.mls, prep.reads.lengths, tolerance=tolerance)
        members, first = hyb.members_of_hybrid()
        offsets, ok = layout_clusters(prep.g0, members, first, tolerance)
        assert ok.all() and np.array_equal(hyb.read_offsets[members], offsets)
        if name == "D1":
            assert_layouts_hold(prep.g0, hyb, prep.reads.lengths)
