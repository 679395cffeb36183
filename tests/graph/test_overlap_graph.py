"""Unit tests for the OverlapGraph structure."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.align.overlap import Overlap, OverlapKind
from repro.graph.overlap_graph import OverlapGraph

from tests.graph.strategies import edge_lists
from tests.reference.graph_build import graph_arrays


def simple_graph():
    # path 0-1-2 with weights 10, 20, deltas +40, +40
    return OverlapGraph(
        3,
        np.array([0, 1]),
        np.array([1, 2]),
        np.array([10.0, 20.0]),
        deltas=np.array([40, 40]),
    )


class TestConstruction:
    def test_basic_counts(self):
        g = simple_graph()
        assert g.n_nodes == 3
        assert g.n_edges == 2
        assert g.total_edge_weight == 30.0
        assert g.total_node_weight == 3

    def test_orientation_normalised(self):
        g = OverlapGraph(2, np.array([1]), np.array([0]), np.array([5.0]), deltas=np.array([7]))
        assert g.eu[0] == 0 and g.ev[0] == 1
        assert g.deltas[0] == -7  # flipped with the orientation

    def test_parallel_edges_merged(self):
        g = OverlapGraph(
            2,
            np.array([0, 1]),
            np.array([1, 0]),
            np.array([5.0, 7.0]),
            deltas=np.array([3, -3]),
            identities=np.array([0.9, 0.95]),
        )
        assert g.n_edges == 1
        assert g.weights[0] == 12.0
        assert g.identities[0] == 0.95
        assert g.deltas[0] == 3  # heaviest instance (weight 7, flipped to (0,1) delta 3)

    def test_parallel_edges_weight_tie_keeps_last_heaviest(self):
        # Two instances tie at weight 7; the later one in input order
        # (given as (1, 0) with delta -9, so +9 once flipped) is kept.
        g = OverlapGraph(
            3,
            np.array([0, 1, 1, 0]),
            np.array([1, 2, 0, 1]),
            np.array([7.0, 2.0, 7.0, 5.0]),
            deltas=np.array([3, 1, -9, 4]),
            identities=np.array([0.9, 1.0, 0.8, 0.97]),
        )
        assert g.eu.tolist() == [0, 1] and g.ev.tolist() == [1, 2]
        assert g.weights.tolist() == [19.0, 2.0]
        assert g.identities.tolist() == [0.97, 1.0]
        assert g.deltas.tolist() == [9, 1]

    def test_parallel_edges_without_deltas(self):
        g = OverlapGraph(2, np.array([0, 1, 0]), np.array([1, 0, 1]), np.array([1.0, 2.0, 4.0]))
        assert not g.has_deltas
        assert g.weights.tolist() == [7.0] and g.deltas.tolist() == [0]

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            OverlapGraph(2, np.array([0]), np.array([0]), np.array([1.0]))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            OverlapGraph(2, np.array([0]), np.array([9]), np.array([1.0]))

    def test_node_weight_mismatch(self):
        with pytest.raises(ValueError):
            OverlapGraph(3, np.array([0]), np.array([1]), np.array([1.0]), node_weights=np.array([1]))

    def test_empty_graph(self):
        g = OverlapGraph(5, np.array([]), np.array([]), np.array([]))
        assert g.n_edges == 0
        assert g.degrees.tolist() == [0] * 5

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_weight_rejected(self, bad):
        # A -inf edge would tie the matching's "no free neighbour"
        # sentinel, and the group-max reductions assume finite weights.
        with pytest.raises(ValueError, match="finite"):
            OverlapGraph(3, np.array([0, 1]), np.array([1, 2]), np.array([2.0, bad]))


class TestMatchesLexsortReference:
    """The packed-key merge and CSR == the ``lexsort`` body they
    replaced (``tests/reference/graph_build.py``), bit for bit."""

    @given(edge_lists())
    @settings(max_examples=300, deadline=None)
    def test_arrays_bit_equal(self, case):
        n, eu, ev, w, d, ident = case
        g = OverlapGraph(n, eu, ev, w, deltas=d, identities=ident)
        for name, want in graph_arrays(n, eu, ev, w, deltas=d, identities=ident).items():
            got = getattr(g, name)
            assert (got.dtype, got.shape) == (want.dtype, want.shape), name
            assert got.tobytes() == want.tobytes(), name


class TestAdjacencyOrder:
    """Containment's first-hit cutoff (``repro.distributed.containment``)
    ranks a node's rows in this order: its higher neighbours ascending,
    then its lower ones ascending, each once."""

    @given(edge_lists())
    @settings(max_examples=300, deadline=None)
    def test_higher_neighbours_ascending_then_lower(self, case):
        n, eu, ev, w, d, ident = case
        g = OverlapGraph(n, eu, ev, w, deltas=d, identities=ident)
        for v in range(n):
            nbrs = g.neighbors(v).tolist()
            partners = {int(b) for a, b in zip(eu, ev) if a == v}
            partners |= {int(a) for a, b in zip(eu, ev) if b == v}
            higher = sorted(u for u in partners if u > v)
            lower = sorted(u for u in partners if u < v)
            assert nbrs == higher + lower


class TestQueries:
    def test_neighbors(self):
        g = simple_graph()
        assert set(g.neighbors(1).tolist()) == {0, 2}
        assert g.neighbors(0).tolist() == [1]

    def test_degrees(self):
        assert simple_graph().degrees.tolist() == [1, 2, 1]

    def test_edge_delta_directional(self):
        g = simple_graph()
        e01 = int(g.incident_edges(0)[0])
        assert g.edge_delta(e01, 0) == 40
        assert g.edge_delta(e01, 1) == -40

    def test_edge_delta_requires_endpoint(self):
        g = simple_graph()
        with pytest.raises(ValueError):
            g.edge_delta(0, 2)

    def test_edge_delta_requires_deltas(self):
        g = OverlapGraph(2, np.array([0]), np.array([1]), np.array([1.0]))
        with pytest.raises(ValueError, match="no layout deltas"):
            g.edge_delta(0, 0)

    def test_other_endpoint(self):
        g = simple_graph()
        assert g.other_endpoint(0, 0) == 1
        assert g.other_endpoint(0, 1) == 0
        with pytest.raises(ValueError):
            g.other_endpoint(0, 2)


class TestFromOverlaps:
    def test_from_overlaps(self):
        ovs = [
            Overlap(0, 1, 30, 0, 70, 0.95, OverlapKind.QUERY_LEFT),
            Overlap(1, 2, 30, 0, 70, 1.0, OverlapKind.QUERY_LEFT),
        ]
        g = OverlapGraph.from_overlaps(ovs, 3)
        assert g.n_edges == 2
        assert g.weights.tolist() == [70.0, 70.0]
        e01 = int(g.incident_edges(0)[0])
        assert g.edge_delta(e01, 0) == 30  # read1 sits 30bp right of read0

    def test_empty_overlaps(self):
        g = OverlapGraph.from_overlaps([], 4)
        assert g.n_edges == 0


class TestDerivation:
    def test_drop_edges(self):
        g = simple_graph()
        g2 = g.drop_edges(np.array([True, False]))
        assert g2.n_edges == 1
        assert g2.n_nodes == 3
        assert g2.weights.tolist() == [20.0]

    def test_drop_edges_bad_mask(self):
        with pytest.raises(ValueError):
            simple_graph().drop_edges(np.array([True]))

    def test_drop_nodes(self):
        g = simple_graph()
        g2, remap = g.drop_nodes(np.array([False, False, True]))
        assert g2.n_nodes == 2
        assert g2.n_edges == 1
        assert remap.tolist() == [0, 1, -1]

    def test_drop_nodes_removes_incident_edges(self):
        g = simple_graph()
        g2, _ = g.drop_nodes(np.array([False, True, False]))
        assert g2.n_edges == 0

    def test_to_networkx(self):
        nxg = simple_graph().to_networkx()
        assert nxg.number_of_nodes() == 3
        assert nxg.edges[0, 1]["weight"] == 10.0
