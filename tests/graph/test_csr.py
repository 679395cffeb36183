"""Unit tests for CSR construction."""

import numpy as np
import pytest

from repro.graph.csr import build_csr


class TestBuildCsr:
    def test_simple_triangle(self):
        indptr, adj, eids = build_csr(3, np.array([0, 1, 0]), np.array([1, 2, 2]))
        assert indptr.tolist() == [0, 2, 4, 6]
        assert set(adj[0:2].tolist()) == {1, 2}
        assert set(adj[2:4].tolist()) == {0, 2}

    def test_edge_ids_symmetric(self):
        indptr, adj, eids = build_csr(2, np.array([0]), np.array([1]))
        assert eids.tolist() == [0, 0]

    def test_isolated_nodes(self):
        indptr, adj, _ = build_csr(4, np.array([1]), np.array([2]))
        assert indptr.tolist() == [0, 0, 1, 2, 2]

    def test_empty_graph(self):
        indptr, adj, _ = build_csr(3, np.array([]), np.array([]))
        assert indptr.tolist() == [0, 0, 0, 0]
        assert adj.size == 0

    def test_empty_graph_arrays_are_typed(self):
        # Downstream vectorized consumers (the finish kernels) index
        # with these arrays, so the edgeless path must return int64
        # like the populated path — not float64 from np.array([]).
        indptr, adj, eids = build_csr(3, np.array([]), np.array([]))
        assert indptr.dtype == np.int64
        assert adj.dtype == np.int64
        assert eids.dtype == np.int64

    def test_zero_node_graph(self):
        indptr, adj, eids = build_csr(0, np.array([]), np.array([]))
        assert indptr.tolist() == [0]
        assert indptr.dtype == np.int64
        assert adj.size == 0 and eids.size == 0

    def test_populated_graph_arrays_are_typed(self):
        indptr, adj, eids = build_csr(3, np.array([0, 1]), np.array([1, 2]))
        assert indptr.dtype == np.int64
        assert adj.dtype == np.int64
        assert eids.dtype == np.int64

    def test_isolated_nodes_slices_are_empty_and_indexable(self):
        indptr, adj, eids = build_csr(5, np.array([0]), np.array([4]))
        for v in (1, 2, 3):
            sl = adj[indptr[v] : indptr[v + 1]]
            assert sl.size == 0
            assert sl.dtype == np.int64

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            build_csr(2, np.array([0]), np.array([5]))

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            build_csr(2, np.array([1]), np.array([1]))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            build_csr(3, np.array([0, 1]), np.array([1]))
