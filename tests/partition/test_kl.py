"""Unit tests for 2-way Kernighan-Lin refinement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.partition.recursive as recursive
from repro.core.config import AssemblyConfig
from repro.graph.overlap_graph import Level
from repro.partition.kl import kl_refine, kl_refine_bisection
from repro.partition.metrics import edge_cut, partition_node_weights
from repro.partition.multilevel import partition_via_hybrid
from tests.partition.conftest import random_weighted_graph, two_cliques
from tests.reference import kl_loop


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


@st.composite
def kl_cases(draw):
    """A graph, a bisection and KL's knobs.  Edge weights come from a
    small set (sums that tie, and sums like 0.1 + 0.2 that round),
    node weights are unequal, many nodes are isolated (D = 0), and a
    part may be empty."""
    n = draw(st.integers(1, 24))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=2 * n)) if pairs else []
    weights = draw(
        st.lists(
            st.sampled_from([0.1, 0.2, 0.3, 1.0, 2.0, 3.0, 7.5]),
            min_size=len(edges),
            max_size=len(edges),
        )
    )
    node_w = draw(st.lists(st.sampled_from([1, 1, 1, 2, 3, 9, 40]), min_size=n, max_size=n))
    labels = draw(
        st.one_of(
            st.lists(st.integers(0, 1), min_size=n, max_size=n),
            st.sampled_from([[0] * n, [1] * n]),
        )
    )
    eu = np.array([u for u, _ in edges], dtype=np.int64)
    ev = np.array([v for _, v in edges], dtype=np.int64)
    graph = Level(n, eu, ev, np.array(weights, dtype=np.float64), np.array(node_w))
    knobs = {
        "stall_window": draw(st.integers(1, 8)),
        "max_passes": draw(st.integers(1, 4)),
        "max_scan": draw(st.sampled_from([1, 2, 3, 5, 400])),
        "node_balance": draw(st.sampled_from([1.0, 1.1, 1.5])),
    }
    return graph, np.array(labels, dtype=np.int64), knobs


def assert_same_as_oracle(graph, labels, **knobs):
    got = kl_refine(graph, labels, **knobs)
    want = kl_loop.kl_refine(graph, labels, **knobs)
    assert np.array_equal(got[0], want[0])
    assert got[1] == want[1] and got[2] == want[2]


class TestMatchesOracle:
    """Labels, total gain and ``converged`` equal the per-swap NumPy
    loop's (``tests/reference/kl_loop.py``), bit for bit."""

    @settings(max_examples=300)
    @given(kl_cases())
    def test_random_graphs(self, case):
        graph, labels, knobs = case
        assert_same_as_oracle(graph, labels, **knobs)

    @pytest.mark.parametrize("seed", range(6))
    def test_larger_graphs_with_unequal_node_weights(self, seed):
        rng = np.random.default_rng(seed)
        g = random_weighted_graph(80, 0.04, seed)
        g = Level(g.n_nodes, g.eu, g.ev, g.weights, rng.integers(1, 30, size=g.n_nodes))
        labels = (rng.random(g.n_nodes) < 0.5).astype(np.int64)
        for stall_window, max_scan in ((50, 400), (3, 7)):
            assert_same_as_oracle(g, labels, stall_window=stall_window, max_scan=max_scan)


def test_hybrid_partition_labels_match_oracle_on_standard_datasets(standard_preps, monkeypatch):
    config = AssemblyConfig()  # seed 0, as standard_preps prepared D1-D3
    k, pcfg, seed = config.n_partitions, config.partition, config.seed
    preps = list(standard_preps.values())
    got = [partition_via_hybrid(p.mls, p.hyb, k, pcfg, seed).labels_finest for p in preps]
    monkeypatch.setattr(recursive, "kl_refine", kl_loop.kl_refine)
    for prep, labels in zip(preps, got):
        want = partition_via_hybrid(prep.mls, prep.hyb, k, pcfg, seed).labels_finest
        assert np.array_equal(labels, want)
