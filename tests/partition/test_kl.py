"""Unit tests for 2-way Kernighan-Lin refinement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.overlap_graph import Level
from repro.partition.kl import edge_weight_between, kl_refine_bisection
from repro.partition.metrics import edge_cut, partition_node_weights
from tests.partition.conftest import random_weighted_graph, two_cliques


class TestEdgeWeightBetween:
    def test_present(self):
        g = Level(3, np.array([0, 1]), np.array([1, 2]), np.array([5.0, 7.0]))
        assert edge_weight_between(g, 0, 1) == 5.0
        assert edge_weight_between(g, 2, 1) == 7.0

    def test_absent(self):
        g = Level(3, np.array([0]), np.array([1]), np.array([5.0]))
        assert edge_weight_between(g, 0, 2) == 0.0


class TestKlRefine:
    def test_fixes_swapped_cliques(self):
        g = two_cliques(n_each=6)
        # Start from a deliberately bad bisection: one node swapped each way.
        labels = np.array([0] * 6 + [1] * 6)
        labels[0], labels[6] = 1, 0
        refined, gain = kl_refine_bisection(g, labels)
        assert edge_cut(g, refined) == 1.0
        assert gain > 0

    def test_optimal_input_untouched(self):
        g = two_cliques(n_each=6)
        labels = np.array([0] * 6 + [1] * 6)
        refined, gain = kl_refine_bisection(g, labels)
        assert (refined == labels).all()
        assert gain == 0.0

    def test_preserves_part_sizes(self):
        g = random_weighted_graph(30, 0.3, seed=2)
        labels = (np.arange(30) % 2).astype(np.int64)
        refined, _ = kl_refine_bisection(g, labels)
        assert partition_node_weights(g, refined, 2).tolist() == [15, 15]

    def test_never_worsens_cut(self):
        for seed in range(5):
            g = random_weighted_graph(40, 0.2, seed=seed)
            labels = (np.random.default_rng(seed).random(40) < 0.5).astype(np.int64)
            refined, _ = kl_refine_bisection(g, labels)
            assert edge_cut(g, refined) <= edge_cut(g, labels) + 1e-9

    def test_gain_matches_cut_delta(self):
        g = random_weighted_graph(30, 0.3, seed=3)
        labels = (np.arange(30) % 2).astype(np.int64)
        refined, gain = kl_refine_bisection(g, labels)
        assert gain == pytest.approx(edge_cut(g, labels) - edge_cut(g, refined))

    def test_input_not_mutated(self):
        g = two_cliques()
        labels = np.array([0] * 8 + [1] * 8)
        labels[0], labels[8] = 1, 0
        snapshot = labels.copy()
        kl_refine_bisection(g, labels)
        assert (labels == snapshot).all()

    def test_empty_graph(self):
        g = Level(0, np.array([]), np.array([]), np.array([]))
        refined, gain = kl_refine_bisection(g, np.array([], dtype=np.int64))
        assert refined.size == 0 and gain == 0.0

    def test_rejects_bad_labels(self):
        g = two_cliques()
        with pytest.raises(ValueError):
            kl_refine_bisection(g, np.zeros(3, dtype=np.int64))
        with pytest.raises(ValueError):
            kl_refine_bisection(g, np.full(16, 2, dtype=np.int64))

    def test_one_sided_partition_no_crash(self):
        g = two_cliques(n_each=4)
        labels = np.zeros(8, dtype=np.int64)  # everything in part 0
        refined, gain = kl_refine_bisection(g, labels)
        assert gain == 0.0  # no pairs to swap

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=4, max_value=30), st.integers(min_value=0, max_value=500))
    def test_cut_monotone_property(self, n, seed):
        g = random_weighted_graph(n, 0.3, seed)
        rng = np.random.default_rng(seed)
        labels = (rng.random(n) < 0.5).astype(np.int64)
        refined, gain = kl_refine_bisection(g, labels)
        assert edge_cut(g, refined) <= edge_cut(g, labels) + 1e-9
        assert gain >= 0
