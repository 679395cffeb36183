"""Unit tests for greedy graph growing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.overlap_graph import Level
from repro.partition.greedy_growing import greedy_grow_bisection
from repro.partition.metrics import edge_cut, partition_node_weights
from tests.partition.conftest import random_weighted_graph, two_cliques


class TestGreedyGrowBisection:
    def test_all_nodes_assigned(self):
        g = random_weighted_graph(40, 0.2, seed=0)
        labels = greedy_grow_bisection(g, np.random.default_rng(0))
        assert set(labels.tolist()) <= {0, 1}
        assert (labels >= 0).all()

    def test_roughly_balanced(self):
        g = random_weighted_graph(60, 0.15, seed=1)
        labels = greedy_grow_bisection(g, np.random.default_rng(1))
        nw = partition_node_weights(g, labels, 2)
        assert nw.min() >= 0.3 * g.total_node_weight

    def test_two_cliques_found(self):
        g = two_cliques(n_each=10)
        best_cut = min(
            edge_cut(g, greedy_grow_bisection(g, np.random.default_rng(seed)))
            for seed in range(5)
        )
        # Growing from a random seed inside a clique should peel off one
        # clique before touching the bridge in at least one of 5 tries.
        assert best_cut == 1.0

    def test_empty_graph(self):
        g = Level(0, np.array([]), np.array([]), np.array([]))
        assert greedy_grow_bisection(g, np.random.default_rng(0)).size == 0

    def test_single_node(self):
        g = Level(1, np.array([]), np.array([]), np.array([]))
        assert greedy_grow_bisection(g, np.random.default_rng(0)).tolist() == [0]

    def test_two_nodes(self):
        g = Level(2, np.array([0]), np.array([1]), np.array([5.0]))
        labels = greedy_grow_bisection(g, np.random.default_rng(0))
        assert sorted(labels.tolist()) == [0, 1]

    def test_disconnected_components(self):
        # two disjoint edges; growing must reseed across components
        g = Level(4, np.array([0, 2]), np.array([1, 3]), np.array([1.0, 1.0]))
        labels = greedy_grow_bisection(g, np.random.default_rng(0))
        assert set(labels.tolist()) == {0, 1}
        assert partition_node_weights(g, labels, 2).tolist() == [2, 2]

    def test_isolated_nodes(self):
        g = Level(5, np.array([0]), np.array([1]), np.array([1.0]))
        labels = greedy_grow_bisection(g, np.random.default_rng(3))
        assert (labels >= 0).all()

    def test_invalid_balance(self):
        g = two_cliques()
        with pytest.raises(ValueError):
            greedy_grow_bisection(g, np.random.default_rng(0), edge_balance=0.9)

    def test_weighted_nodes_balanced_by_weight(self):
        # one heavy node should sit alone against many light ones
        g = Level(
            5,
            np.array([0, 0, 0, 0]),
            np.array([1, 2, 3, 4]),
            np.array([1.0, 1.0, 1.0, 1.0]),
            node_weights=np.array([4, 1, 1, 1, 1]),
        )
        labels = greedy_grow_bisection(g, np.random.default_rng(0))
        nw = partition_node_weights(g, labels, 2)
        assert nw.max() <= 6  # not everything in one part

    @settings(max_examples=20)
    @given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=1000))
    def test_never_leaves_unassigned(self, n, seed):
        g = random_weighted_graph(n, 0.2, seed)
        labels = greedy_grow_bisection(g, np.random.default_rng(seed))
        assert (labels >= 0).all() and (labels <= 1).all()
