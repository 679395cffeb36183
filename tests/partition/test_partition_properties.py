"""Hypothesis property tests on partitioning invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.coarsen import CoarsenConfig
from repro.partition.kl import kl_refine_bisection
from repro.partition.kway import kway_refine
from repro.partition.metrics import edge_cut, partition_node_weights
from tests.partition.conftest import random_weighted_graph, recursive_labels

SMALL = CoarsenConfig(min_nodes=6)


class TestRecursiveBisectionProperties:
    @settings(max_examples=12, deadline=None)
    @given(
        st.integers(min_value=8, max_value=60),
        st.sampled_from([2, 4, 8]),
        st.integers(min_value=0, max_value=200),
    )
    def test_labels_complete_and_in_range(self, n, k, seed):
        g = random_weighted_graph(n, 0.2, seed)
        labels = recursive_labels(g, k, SMALL, seed)
        assert labels.size == n
        assert labels.min() >= 0 and labels.max() < k

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=16, max_value=60), st.integers(min_value=0, max_value=100))
    def test_all_parts_nonempty_when_feasible(self, n, seed):
        g = random_weighted_graph(n, 0.3, seed)
        labels = recursive_labels(g, 4, SMALL, seed)
        counts = partition_node_weights(g, labels, 4)
        assert (counts > 0).all()

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=10, max_value=40), st.integers(min_value=0, max_value=100))
    def test_cut_bounded_by_total(self, n, seed):
        g = random_weighted_graph(n, 0.3, seed)
        labels = recursive_labels(g, 4, SMALL, seed)
        assert 0.0 <= edge_cut(g, labels) <= g.total_edge_weight + 1e-9


class TestRefinementProperties:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=6, max_value=40), st.integers(min_value=0, max_value=300))
    def test_kway_never_increases_cut(self, n, seed):
        g = random_weighted_graph(n, 0.25, seed)
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 4, size=n)
        refined, gain = kway_refine(g, labels, k=4)
        assert edge_cut(g, refined) <= edge_cut(g, labels) + 1e-9
        assert gain == pytest.approx(edge_cut(g, labels) - edge_cut(g, refined))

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=4, max_value=40), st.integers(min_value=0, max_value=300))
    def test_kl_preserves_node_counts(self, n, seed):
        g = random_weighted_graph(n, 0.25, seed)
        rng = np.random.default_rng(seed)
        labels = (rng.random(n) < 0.5).astype(np.int64)
        refined, _ = kl_refine_bisection(g, labels)
        # KL only swaps: per-part node counts are invariant.
        assert np.bincount(refined, minlength=2).tolist() == np.bincount(
            labels, minlength=2
        ).tolist()

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=6, max_value=30), st.integers(min_value=0, max_value=100))
    def test_kway_idempotent_at_fixpoint(self, n, seed):
        g = random_weighted_graph(n, 0.3, seed)
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 3, size=n)
        # Drive to a true fixpoint first (a single call is pass-bounded
        # and may stop while still improving).
        current = labels
        for _ in range(20):
            current, gain = kway_refine(g, current, k=3, max_passes=10)
            if gain == 0.0:
                break
        twice, gain = kway_refine(g, current, k=3, max_passes=10)
        assert gain == pytest.approx(0.0, abs=1e-9)
        assert edge_cut(g, twice) == pytest.approx(edge_cut(g, current))
