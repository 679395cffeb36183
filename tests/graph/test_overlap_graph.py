"""Unit tests for the Level and OverlapGraph structures."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align.overlap import KIND_NAMES, PackedOverlaps
from repro.graph.overlap_graph import Level, OverlapGraph

from tests.graph.strategies import edge_lists
from tests.reference.finish_loop import edge_delta
from tests.reference.graph_build import graph_arrays
from tests.reference.hybrid_build import contracted_from_g0

LEVEL_ARRAYS = ("eu", "ev", "weights", "node_weights", "indptr", "adj", "adj_edge")


def graph_of(case):
    n, eu, ev, w, d = case
    return Level(n, eu, ev, w) if d is None else OverlapGraph(n, eu, ev, w, deltas=d)


def assert_same_arrays(got, want, names):
    for name in names:
        a = getattr(got, name)
        b = want[name] if isinstance(want, dict) else getattr(want, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name


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
        )
        assert g.n_edges == 1
        assert g.weights[0] == 12.0
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
        )
        assert g.eu.tolist() == [0, 1] and g.ev.tolist() == [1, 2]
        assert g.weights.tolist() == [19.0, 2.0]
        assert g.deltas.tolist() == [9, 1]

    def test_parallel_edges_without_deltas(self):
        g = Level(2, np.array([0, 1, 0]), np.array([1, 0, 1]), np.array([1.0, 2.0, 4.0]))
        assert not hasattr(g, "deltas")
        assert g.eu.tolist() == [0] and g.weights.tolist() == [7.0]

    def test_overlap_graph_requires_deltas(self):
        with pytest.raises(TypeError):
            OverlapGraph(2, np.array([0]), np.array([1]), np.array([1.0]))
        with pytest.raises(ValueError, match="deltas"):
            OverlapGraph(2, np.array([0]), np.array([1]), np.array([1.0]), deltas=np.array([1, 2]))

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Level(2, np.array([0]), np.array([0]), np.array([1.0]))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Level(2, np.array([0]), np.array([9]), np.array([1.0]))

    def test_node_weight_mismatch(self):
        with pytest.raises(ValueError):
            Level(3, np.array([0]), np.array([1]), np.array([1.0]), node_weights=np.array([1]))

    def test_empty_graph(self):
        g = Level(5, np.array([]), np.array([]), np.array([]))
        assert g.n_edges == 0
        assert g.degrees.tolist() == [0] * 5

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_weight_rejected(self, bad):
        # A -inf edge would tie the matching's "no free neighbour"
        # sentinel, and the group-max reductions assume finite weights.
        with pytest.raises(ValueError, match="finite"):
            Level(3, np.array([0, 1]), np.array([1, 2]), np.array([2.0, bad]))


class TestMatchesLexsortReference:
    """The packed-key merge and CSR == the ``lexsort`` body they
    replaced (``tests/reference/graph_build.py``), bit for bit."""

    @given(edge_lists())
    @settings(max_examples=300, deadline=None)
    def test_arrays_bit_equal(self, case):
        n, eu, ev, w, d = case
        want = graph_arrays(n, eu, ev, w, deltas=d)
        assert_same_arrays(graph_of(case), want, want)


class TestAdjacencyOrder:
    """Containment's first-hit cutoff (``repro.distributed.containment``)
    ranks a node's rows in this order: its higher neighbours ascending,
    then its lower ones ascending, each once."""

    @given(edge_lists())
    @settings(max_examples=300, deadline=None)
    def test_higher_neighbours_ascending_then_lower(self, case):
        n, eu, ev, _, _ = case
        g = graph_of(case)
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
        # the oracles' delta reader (tests/reference/finish_loop.py)
        g = simple_graph()
        e01 = int(g.adj_edge[g.indptr[0]])
        assert edge_delta(g, e01, 0) == 40
        assert edge_delta(g, e01, 1) == -40

    def test_edge_delta_requires_endpoint(self):
        g = simple_graph()
        with pytest.raises(ValueError):
            edge_delta(g, 0, 2)

    def test_edge_delta_requires_deltas(self):
        g = Level(2, np.array([0]), np.array([1]), np.array([1.0]))
        with pytest.raises(ValueError, match="no layout deltas"):
            edge_delta(g, 0, 0)


class TestFromOverlaps:
    def test_from_overlaps(self):
        left = KIND_NAMES.index("query_left")
        ovs = PackedOverlaps(
            query=np.array([0, 1]),
            ref=np.array([1, 2]),
            q_start=np.array([30, 30]),
            r_start=np.array([0, 0]),
            length=np.array([70, 70]),
            identity=np.array([0.95, 1.0]),
            kind_code=np.array([left, left], dtype=np.uint8),
        )
        g = OverlapGraph.from_overlaps(ovs, 3)
        assert g.n_edges == 2
        assert g.weights.tolist() == [70.0, 70.0]
        assert g.eu.tolist() == [0, 1] and g.ev.tolist() == [1, 2]
        assert g.deltas.tolist() == [30, 30]  # read1 sits 30bp right of read0

    def test_empty_overlaps(self):
        g = OverlapGraph.from_overlaps(PackedOverlaps.empty(), 4)
        assert g.n_edges == 0


class TestDerivation:
    def test_drop_nodes(self):
        g = simple_graph()
        g2, remap = g.induced_subgraph(np.array([0, 1]))
        assert g2.n_nodes == 2
        assert g2.n_edges == 1
        assert remap.tolist() == [0, 1, -1]
        assert not hasattr(g2, "deltas")

    def test_drop_nodes_removes_incident_edges(self):
        g = simple_graph()
        g2, _ = g.induced_subgraph(np.array([0, 2]))
        assert g2.n_edges == 0

    def test_contract_merges_classes(self):
        # edges 0-1, 1-2, 2-3, 0-2: merge {0, 1} and {2, 3}; then merge {1, 2}, drop 3
        g = Level(4, np.array([0, 1, 2, 0]), np.array([1, 2, 3, 2]), np.array([1.0, 2.0, 4.0, 8.0]))
        h = g.contract(np.array([0, 0, 1, 1]))
        assert h.n_nodes == 2 and h.node_weights.tolist() == [2, 2]
        assert h.eu.tolist() == [0] and h.ev.tolist() == [1]
        assert h.weights.tolist() == [10.0]  # the crossing edges 1-2 and 0-2
        k = g.contract(np.array([0, 1, 1, -1]), 3)
        assert k.n_nodes == 3 and k.node_weights.tolist() == [1, 2, 0]
        assert k.weights.tolist() == [9.0]

    def test_contract_bad_mapping(self):
        with pytest.raises(ValueError, match="one entry per node"):
            simple_graph().contract(np.array([0, 0]))


@st.composite
def contraction_chains(draw):
    """An integer-weighted graph (parallel and flipped edges common) and
    two maps ``m1: V -> [0, n1) | -1`` and ``m2: [0, n1) -> [0, n2) | -1``."""
    n, eu, ev, _, _ = draw(edge_lists())
    weights = draw(st.lists(st.integers(1, 1000), min_size=eu.size, max_size=eu.size))
    node_weights = draw(st.lists(st.integers(1, 50), min_size=n, max_size=n))
    n1 = draw(st.integers(0, n))
    m1 = draw(st.lists(st.integers(-1, n1 - 1), min_size=n, max_size=n))
    n2 = draw(st.integers(0, n1))
    m2 = draw(st.lists(st.integers(-1, n2 - 1), min_size=n1, max_size=n1))
    g = Level(n, eu, ev, np.array(weights, dtype=np.float64), np.array(node_weights))
    return g, np.array(m1, dtype=np.int64), n1, np.array(m2, dtype=np.int64), n2


class TestContract:
    @given(contraction_chains())
    @settings(max_examples=300, deadline=None)
    def test_contractions_compose(self, chain):
        g, m1, n1, m2, n2 = chain
        composed = np.full(g.n_nodes, -1, dtype=np.int64)
        composed[m1 >= 0] = m2[m1[m1 >= 0]]
        two_steps = g.contract(m1, n1).contract(m2, n2)
        assert_same_arrays(two_steps, g.contract(composed, n2), LEVEL_ARRAYS)

    @given(contraction_chains())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_lexsort_oracle(self, chain):
        g, m1, _, _, _ = chain
        onto = np.unique(np.maximum(m1, 0), return_inverse=True)[1].reshape(-1)
        assert_same_arrays(g.contract(onto), contracted_from_g0(g, onto), LEVEL_ARRAYS)
