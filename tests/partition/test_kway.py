"""Unit tests for global k-way Kernighan-Lin refinement."""

import numpy as np
import pytest

from repro.graph.overlap_graph import Level
from repro.partition.kway import kway_refine
from repro.partition.metrics import edge_cut, node_weight_balance
from tests.partition.conftest import random_weighted_graph, ring_of_cliques


class TestKwayRefine:
    def test_fixes_misplaced_nodes(self):
        g = ring_of_cliques(n_cliques=4, n_each=6)
        labels = np.repeat(np.arange(4), 6)
        # Misplace one node from each clique into the next part.
        bad = labels.copy()
        for c in range(4):
            bad[c * 6] = (c + 1) % 4
        refined, gain = kway_refine(g, bad, k=4)
        assert edge_cut(g, refined) <= edge_cut(g, bad)
        assert gain > 0
        assert edge_cut(g, refined) == edge_cut(g, labels)

    def test_optimal_untouched(self):
        g = ring_of_cliques()
        labels = np.repeat(np.arange(4), 6)
        refined, gain = kway_refine(g, labels, k=4)
        assert edge_cut(g, refined) == edge_cut(g, labels)
        assert gain == 0.0

    def test_never_worsens(self):
        for seed in range(5):
            g = random_weighted_graph(40, 0.2, seed)
            labels = np.random.default_rng(seed).integers(0, 4, size=40)
            refined, _ = kway_refine(g, labels, k=4)
            assert edge_cut(g, refined) <= edge_cut(g, labels) + 1e-9

    def test_balance_rule_respected(self):
        g = random_weighted_graph(40, 0.3, seed=7)
        labels = np.random.default_rng(7).integers(0, 4, size=40)
        before = node_weight_balance(g, labels, 4)
        refined, _ = kway_refine(g, labels, k=4, balance=1.03)
        # The rule blocks moves into already-over-heavy parts, so the
        # refinement cannot blow up the imbalance arbitrarily.
        after = node_weight_balance(g, refined, 4)
        assert after <= max(before, 1.5) + 0.5

    def test_input_not_mutated(self):
        g = ring_of_cliques()
        labels = np.repeat(np.arange(4), 6)
        labels[0] = 1
        snapshot = labels.copy()
        kway_refine(g, labels, k=4)
        assert (labels == snapshot).all()

    def test_gain_matches_cut_delta(self):
        g = random_weighted_graph(36, 0.25, seed=9)
        labels = np.random.default_rng(9).integers(0, 3, size=36)
        refined, gain = kway_refine(g, labels, k=3)
        assert gain == pytest.approx(edge_cut(g, labels) - edge_cut(g, refined))

    def test_two_parts_matches_problem(self):
        g = random_weighted_graph(20, 0.4, seed=11)
        labels = np.random.default_rng(11).integers(0, 2, size=20)
        refined, _ = kway_refine(g, labels, k=2)
        assert edge_cut(g, refined) <= edge_cut(g, labels)

    def test_empty_graph(self):
        g = Level(0, np.array([]), np.array([]), np.array([]))
        refined, gain = kway_refine(g, np.array([], dtype=np.int64))
        assert refined.size == 0 and gain == 0.0

    def test_bad_inputs(self):
        g = ring_of_cliques()
        with pytest.raises(ValueError):
            kway_refine(g, np.zeros(3, dtype=np.int64))
        with pytest.raises(ValueError):
            kway_refine(g, np.zeros(24, dtype=np.int64), balance=0.5)

    def test_single_part_noop(self):
        g = ring_of_cliques()
        refined, gain = kway_refine(g, np.zeros(24, dtype=np.int64), k=1)
        assert gain == 0.0
        assert (refined == 0).all()
