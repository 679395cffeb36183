"""Unit + property tests for heavy edge matching and coarsening."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.coarsen import (
    CoarsenConfig,
    MultilevelGraphSet,
    build_multilevel_set,
    coarsen_once,
)
from repro.graph.matching import heavy_edge_matching
from repro.graph.overlap_graph import Level, OverlapGraph

from tests.graph.strategies import edge_lists
from tests.reference import matching_loop

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def graph_of(case):
    n, eu, ev, w, d = case
    return Level(n, eu, ev, w) if d is None else OverlapGraph(n, eu, ev, w, deltas=d)


def path_graph(n, weights=None):
    eu = np.arange(n - 1)
    ev = eu + 1
    w = np.ones(n - 1) if weights is None else np.asarray(weights, dtype=np.float64)
    return Level(n, eu, ev, w)


def random_graph(n, p, seed):
    rng = np.random.default_rng(seed)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    if not pairs:
        pairs = [(0, 1)] if n >= 2 else []
    eu = np.array([a for a, _ in pairs])
    ev = np.array([b for _, b in pairs])
    w = rng.integers(1, 100, size=len(pairs)).astype(np.float64)
    return Level(n, eu, ev, w)


class TestHeavyEdgeMatching:
    def test_involution(self):
        g = random_graph(30, 0.2, seed=0)
        match = heavy_edge_matching(g, np.random.default_rng(0))
        assert (match[match] == np.arange(30)).all()

    def test_matched_pairs_are_neighbors(self):
        g = random_graph(30, 0.2, seed=1)
        match = heavy_edge_matching(g, np.random.default_rng(1))
        for v in range(30):
            if match[v] != v:
                assert match[v] in g.neighbors(v)

    def test_isolated_nodes_self_matched(self):
        g = Level(4, np.array([0]), np.array([1]), np.array([1.0]))
        match = heavy_edge_matching(g, np.random.default_rng(0))
        assert match[2] == 2 and match[3] == 3

    def test_prefers_heavy_edge(self):
        # star: center 0 with edges to 1 (w=1), 2 (w=100)
        g = Level(3, np.array([0, 0]), np.array([1, 2]), np.array([1.0, 100.0]))
        for seed in range(5):
            match = heavy_edge_matching(g, np.random.default_rng(seed))
            if match[0] != 0:
                assert match[0] == 2

    @settings(max_examples=20)
    @given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=100))
    def test_involution_property(self, n, seed):
        g = random_graph(n, 0.3, seed)
        match = heavy_edge_matching(g, np.random.default_rng(seed))
        assert (match[match] == np.arange(n)).all()


class TestMatchesLoopReference:
    """The preference-sorted walk == the per-node ``argmax`` loop
    (``tests/reference/matching_loop.py``).  Three calls share one
    generator, so what each call draws from it is pinned too."""

    @given(st.lists(edge_lists(), min_size=3, max_size=3), seeds)
    @settings(max_examples=200, deadline=None)
    def test_three_calls_on_one_rng(self, cases, seed):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for case in cases:
            g = graph_of(case)
            got = heavy_edge_matching(g, rng)
            assert got.dtype == np.int64
            assert np.array_equal(got, matching_loop.heavy_edge_matching(g, ref_rng))
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestCoarsenOnce:
    def test_node_weight_conserved(self):
        g = random_graph(40, 0.15, seed=2)
        coarse, mapping = coarsen_once(g, np.random.default_rng(2))
        assert coarse.total_node_weight == g.total_node_weight

    def test_mapping_covers(self):
        g = random_graph(40, 0.15, seed=3)
        coarse, mapping = coarsen_once(g, np.random.default_rng(3))
        assert mapping.size == g.n_nodes
        assert set(mapping.tolist()) == set(range(coarse.n_nodes))

    def test_shrinks(self):
        g = path_graph(20)
        coarse, _ = coarsen_once(g, np.random.default_rng(0))
        assert coarse.n_nodes < 20

    def test_edge_weight_partitioned(self):
        # weight hidden inside merged pairs + weight of coarse edges == total
        g = random_graph(40, 0.2, seed=4)
        coarse, mapping = coarsen_once(g, np.random.default_rng(4))
        crossing = coarse.total_edge_weight
        hidden = sum(
            g.weights[i] for i in range(g.n_edges) if mapping[g.eu[i]] == mapping[g.ev[i]]
        )
        assert crossing + hidden == pytest.approx(g.total_edge_weight)

    @given(edge_lists(), seeds)
    @settings(max_examples=100, deadline=None)
    def test_mapping_numbers_pairs_by_smaller_member(self, case, seed):
        """The running count over pair representatives == the
        ``np.unique(return_inverse=True)`` relabelling it replaced."""
        g = graph_of(case)
        coarse, mapping = coarsen_once(g, np.random.default_rng(seed))
        match = heavy_edge_matching(g, np.random.default_rng(seed))
        uniq, want = np.unique(np.minimum(np.arange(g.n_nodes), match), return_inverse=True)
        assert mapping.dtype == want.dtype and np.array_equal(mapping, want)
        assert coarse.n_nodes == uniq.size


class TestMultilevelSet:
    def test_monotone_sizes(self):
        g = random_graph(200, 0.05, seed=5)
        mls = build_multilevel_set(g, CoarsenConfig(min_nodes=10), seed=5)
        sizes = [gr.n_nodes for gr in mls.graphs]
        assert sizes == sorted(sizes, reverse=True)
        assert mls.n_levels >= 2

    def test_stops_at_min_nodes(self):
        g = path_graph(100)
        mls = build_multilevel_set(g, CoarsenConfig(min_nodes=80))
        # G0 has 100 > 80 -> one step allowed; G1 <= ~50, stop.
        assert mls.n_levels == 2

    def test_map_to_level_identity_at_zero(self):
        g = path_graph(30)
        mls = build_multilevel_set(g, CoarsenConfig(min_nodes=4))
        assert (mls.map_to_level(0) == np.arange(30)).all()

    def test_map_to_level_composes(self):
        g = random_graph(100, 0.08, seed=6)
        mls = build_multilevel_set(g, CoarsenConfig(min_nodes=8), seed=6)
        top = mls.n_levels - 1
        comp = mls.map_to_level(top)
        manual = np.arange(g.n_nodes)
        for m in mls.mappings:
            manual = m[manual]
        assert (comp == manual).all()

    def test_clusters_partition_base(self):
        g = random_graph(80, 0.1, seed=7)
        mls = build_multilevel_set(g, CoarsenConfig(min_nodes=8), seed=7)
        for level in range(mls.n_levels):
            members, first = mls.members_at_level(level)
            assert first.size == mls.graphs[level].n_nodes + 1 and first[-1] == 80
            assert sorted(members.tolist()) == list(range(80))

    def test_node_weight_conserved_through_levels(self):
        g = random_graph(120, 0.08, seed=8)
        mls = build_multilevel_set(g, CoarsenConfig(min_nodes=8), seed=8)
        for gr in mls.graphs:
            assert gr.total_node_weight == 120

    def test_bad_config(self):
        with pytest.raises(ValueError):
            CoarsenConfig(min_nodes=0)
        with pytest.raises(ValueError):
            CoarsenConfig(min_reduction=0.0)
        with pytest.raises(ValueError):
            CoarsenConfig(max_levels=0)

    def test_mls_validation(self):
        g = path_graph(4)
        with pytest.raises(ValueError):
            MultilevelGraphSet([g], [np.zeros(4, dtype=np.int64)])

    def test_level_out_of_range(self):
        g = path_graph(10)
        mls = build_multilevel_set(g, CoarsenConfig(min_nodes=2))
        with pytest.raises(ValueError):
            mls.map_to_level(99)
