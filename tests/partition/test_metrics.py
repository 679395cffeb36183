"""Unit tests for partition metrics."""

import numpy as np
import pytest

from repro.graph.overlap_graph import Level
from repro.partition.metrics import (
    edge_cut,
    edge_cut_fraction,
    internal_external_weights,
    node_weight_balance,
    partition_edge_weights,
    partition_node_weights,
)


def square_graph():
    # 4-cycle 0-1-2-3-0 with weights 1,2,3,4
    return Level(
        4, np.array([0, 1, 2, 0]), np.array([1, 2, 3, 3]), np.array([1.0, 2.0, 3.0, 4.0])
    )


class TestEdgeCut:
    def test_cut_two_sides(self):
        g = square_graph()
        labels = np.array([0, 0, 1, 1])
        # crossing edges: (1,2) w=2 and (0,3) w=4
        assert edge_cut(g, labels) == 6.0

    def test_single_part_zero(self):
        assert edge_cut(square_graph(), np.zeros(4, dtype=int)) == 0.0

    def test_all_separate(self):
        g = square_graph()
        assert edge_cut(g, np.arange(4)) == 10.0

    def test_fraction(self):
        g = square_graph()
        assert edge_cut_fraction(g, np.array([0, 0, 1, 1])) == pytest.approx(0.6)

    def test_fraction_empty_graph(self):
        g = Level(2, np.array([]), np.array([]), np.array([]))
        assert edge_cut_fraction(g, np.array([0, 1])) == 0.0

    def test_bad_labels(self):
        with pytest.raises(ValueError):
            edge_cut(square_graph(), np.array([0, 1]))
        with pytest.raises(ValueError):
            edge_cut(square_graph(), np.array([0, 1, -1, 0]))


class TestWeights:
    def test_node_weights(self):
        g = square_graph()
        assert partition_node_weights(g, np.array([0, 0, 1, 1])).tolist() == [2, 2]

    def test_node_weights_explicit_k(self):
        g = square_graph()
        assert partition_node_weights(g, np.zeros(4, dtype=int), k=3).tolist() == [4, 0, 0]

    def test_edge_weights_internal(self):
        g = square_graph()
        ew = partition_edge_weights(g, np.array([0, 0, 1, 1]))
        assert ew.tolist() == [1.0, 3.0]

    def test_balance_perfect(self):
        g = square_graph()
        assert node_weight_balance(g, np.array([0, 0, 1, 1])) == 1.0

    def test_balance_skewed(self):
        g = square_graph()
        assert node_weight_balance(g, np.array([0, 0, 0, 1])) == pytest.approx(1.5)


class TestInternalExternal:
    def test_values(self):
        g = square_graph()
        labels = np.array([0, 0, 1, 1])
        internal, external = internal_external_weights(g, labels)
        # node 0: internal (0,1)=1; external (0,3)=4
        assert internal[0] == 1.0 and external[0] == 4.0
        # node 2: internal (2,3)=3; external (1,2)=2
        assert internal[2] == 3.0 and external[2] == 2.0

    def test_sum_identity(self):
        g = square_graph()
        labels = np.array([0, 1, 0, 1])
        internal, external = internal_external_weights(g, labels)
        assert internal.sum() + external.sum() == pytest.approx(2 * g.total_edge_weight)
        assert external.sum() / 2 == pytest.approx(edge_cut(g, labels))
